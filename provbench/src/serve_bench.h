// The serve half of every traced run: an open-loop request stream into
// one forked `serve::run_daemon` over its AF_UNIX socket, isolated calls
// into each serve layer, and the rung ladder.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "serve/protocol.h"

namespace provbench {

/// Offered load of the stream, requests per second. On the 4-core VM
/// the benchmark was defined on, `shed` refusals appeared from 2000/s in
/// periods of slow disk write-back; no run at 1000/s refused a request.
inline constexpr double kOfferedRate = 1000;

/// Concurrent sessions and the connections they are spread over.
inline constexpr int kStreamSessions = 8;
inline constexpr int kStreamConnections = 4;

/// Events after which a session slot moves to a fresh session id, so
/// apply and checkpoint cost do not grow with session age.
inline constexpr int kEventsPerSession = 256;

enum class RequestKind { Fact, Rule, Run, Query };

struct StreamRequest {
  double due_s = 0;     ///< send time, seconds after the stream starts
  int connection = 0;   ///< which of the kStreamConnections carries it
  RequestKind kind = RequestKind::Fact;
  provmark::serve::Request request;
  std::string line;     ///< the wire line (format_request)
};

/// The first `count` requests of the seed's stream. A pure function of
/// the seed: the same seed gives a byte-identical stream, and a longer
/// stream extends a shorter one.
std::vector<StreamRequest> make_stream(std::uint64_t seed, std::size_t count);

/// The serve half of a traced run: isolated layer calls at full session
/// size, the rung ladder, and a short stream with the default checkpoint
/// cadence followed by a kill-and-restart probe. Spans go to
/// `spans_path`.
void trace_serve(std::uint64_t seed, const std::filesystem::path& work_dir,
                 const std::filesystem::path& spans_path, RunResult& out);

}  // namespace provbench
