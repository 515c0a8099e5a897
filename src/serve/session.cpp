#include "serve/session.h"

#include <stdexcept>
#include <utility>

#include "bench_suite/program_text.h"
#include "datalog/fact_io.h"
#include "runtime/thread_pool.h"
#include "util/limits.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::serve {

Session::Session(std::string id, std::uint64_t seed, SessionOptions options)
    : id_(std::move(id)), seed_(seed), options_(std::move(options)) {}

void Session::quarantine(const std::string& reason) {
  quarantined_ = true;
  quarantine_reason_ = reason;
}

void Session::restore(const std::string& program_text, std::uint64_t seq) {
  engine_.load_program(program_text);
  engine_.run();
  program_log_ = program_text;
  applied_seq_ = seq;
}

bool Session::apply(const JournalRecord& record,
                    const std::atomic<bool>* cancel) {
  if (quarantined_) {
    // Admission refuses events for quarantined sessions, and quarantine
    // is deterministic, so replay can only reach this via a journal
    // written before the poisoning event was understood — skipping is
    // the state-preserving choice.
    return true;
  }
  try {
    util::check_input_size("serve event payload", record.payload.size(),
                           options_.max_payload_bytes);
    switch (record.kind) {
      case EventKind::Fact:
      case EventKind::Rule: {
        engine_.load_program(record.payload);
        program_log_ += record.payload;
        if (!record.payload.empty() && record.payload.back() != '\n') {
          program_log_ += '\n';
        }
        break;
      }
      case EventKind::Run: {
        // Payload: "<system>\n<benchmark program text>".
        const std::size_t nl = record.payload.find('\n');
        if (nl == std::string::npos) {
          throw std::invalid_argument(
              "run payload needs '<system>\\n<program text>'");
        }
        const std::string system = record.payload.substr(0, nl);
        bench_suite::BenchmarkProgram program = bench_suite::parse_program(
            record.payload.substr(nl + 1), options_.max_payload_bytes);

        core::PipelineOptions pipeline = options_.pipeline;
        pipeline.system = system;
        pipeline.recorder.reset();
        // The run's seed is a pure function of (session seed, seq):
        // replaying this record — today, or after a crash — re-derives
        // the same trials and the same result graph.
        pipeline.seed = util::Rng(seed_).fork(record.seq).next_u64();
        // A serial 1-thread pool: apply() may execute on any service
        // worker concurrently with other sessions' applies, and the
        // shared default pool is not a cross-thread entry point.
        runtime::ThreadPool serial(1);
        pipeline.pool = &serial;
        pipeline.cancel = cancel;

        core::BenchmarkResult result =
            core::run_benchmark(program, pipeline);
        if (result.status == core::BenchmarkStatus::Failed &&
            result.failure_reason == "cancelled") {
          return false;  // shutdown: unchanged, replayed next recovery
        }
        // Assert the outcome as facts under graph id r<seq>. A failed
        // run is a legitimate, deterministic outcome — it still lands
        // in the fixpoint so queries (and the recovery identity gates)
        // see it.
        const std::string gid = std::string("r").append(
            std::to_string(static_cast<unsigned long long>(record.seq)));
        std::string facts = "runstatus(" + gid + "," +
                            core::status_name(result.status) + ").\n";
        facts += datalog::to_datalog(result.result, gid);
        engine_.load_program(facts);
        program_log_ += facts;
        break;
      }
    }
    // Surface malformed clauses (and unstratified rule sets) now, at
    // the event that introduced them, instead of at the next query:
    // quarantine must be attributable to one seq for replay to agree.
    engine_.run();
  } catch (const std::exception& e) {
    quarantine(e.what());
  }
  applied_seq_ = record.seq;
  ++applied_since_checkpoint_;
  return true;
}

std::string Session::dump() {
  std::string out;
  for (const std::string& name : engine_.relation_names()) {
    for (const datalog::Tuple& tuple : engine_.relation(name)) {
      out += name;
      out += '(';
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        if (i > 0) out += ',';
        out += util::escape_field(tuple[i]);
      }
      out += ")\n";
    }
  }
  return out;
}

std::string Session::digest() {
  return util::format("%016llx", static_cast<unsigned long long>(
                                     util::stable_hash(dump())));
}

std::string Session::query(const std::string& pattern_text) {
  std::string out;
  for (const auto& binding : engine_.query(pattern_text)) {
    std::string line;
    for (const auto& [var, value] : binding) {
      if (!line.empty()) line += ' ';
      line += var + "=" + util::escape_field(value);
    }
    if (line.empty()) line = "match";
    out += line + "\n";
  }
  return out;
}

}  // namespace provmark::serve
