#include "util/loc_counter.h"

#include <filesystem>
#include <sstream>

#include "util/strings.h"

namespace provmark::util {

LocCount count_source_lines(const std::string& text) {
  LocCount count;
  bool in_block_comment = false;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    ++count.total;
    std::string_view t = trim(line);
    if (t.empty()) {
      ++count.blank;
      continue;
    }
    bool saw_code = false;
    bool saw_comment = in_block_comment;
    for (std::size_t i = 0; i < t.size();) {
      if (in_block_comment) {
        std::size_t end = t.find("*/", i);
        if (end == std::string_view::npos) {
          i = t.size();
        } else {
          in_block_comment = false;
          i = end + 2;
        }
        continue;
      }
      if (t.substr(i, 2) == "//") {
        saw_comment = true;
        break;
      }
      if (t.substr(i, 2) == "/*") {
        saw_comment = true;
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (t[i] != ' ' && t[i] != '\t') saw_code = true;
      ++i;
    }
    if (saw_code) {
      ++count.code;
    } else if (saw_comment) {
      ++count.comment;
    } else {
      ++count.blank;
    }
  }
  return count;
}

LocCount count_directory(const std::string& dir,
                         const std::vector<std::string>& extensions) {
  LocCount total;
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(dir, ec);
  if (ec) return total;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    bool matches = false;
    for (const std::string& ext : extensions) {
      if (ends_with(name, ext)) {
        matches = true;
        break;
      }
    }
    if (!matches) continue;
    LocCount file = count_source_lines(read_file(entry.path()));
    total.total += file.total;
    total.code += file.code;
    total.comment += file.comment;
    total.blank += file.blank;
  }
  return total;
}

LocCount count_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return LocCount{};
  return count_source_lines(read_file(path));
}

}  // namespace provmark::util
