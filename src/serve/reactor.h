// serve::Reactor — the one event loop under the serve daemon, a
// standby's link to its primary and the cluster router.
//
// Single-threaded and non-blocking: one poll(2) per iteration over the
// SIGTERM/SIGINT self-pipe, the listener, line-framed connections and
// raw watched fds (member heartbeat pipes). Every owned fd is
// O_NONBLOCK, so a peer that stops reading stalls only itself.
// Connections are keyed by a generation id, never reused, so an answer
// for a client that hung up is a no-op, not a write to a reused fd.
//
// Responses leave in request order per connection: `reserve` a slot
// when a request arrives, `fill` it when the answer exists (a member's
// proxied reply, a standby's sync ack); filled slots are written
// strictly in order. Client connections (Handler::max_line > 0) are
// bounded: an unterminated line past the cap gets one `too-large`
// response and the connection closes once it is flushed, and past
// kMaxPendingOutput unwritten bytes the connection is not read until
// its output drains. Peer links (max_line == 0) carry whole journal
// payloads and are never paused: two daemons that each stopped reading
// the other would deadlock. docs/serve.md, "Event loop".
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace provmark::serve {

class Reactor {
 public:
  using Id = std::uint64_t;    ///< connection or watch; 0 = none
  using Slot = std::uint64_t;  ///< response position on one connection

  static constexpr std::size_t kMaxPendingOutput = std::size_t{1} << 20;

  /// What a line connection does with its input. Caller-owned; one
  /// handler may serve many connections (every accepted client).
  struct Handler {
    /// One line, '\n' / '\r\n' stripped, never empty. May close or
    /// rebind its own connection.
    std::function<void(Id, const std::string&)> on_line;
    /// The reactor closed the connection: peer EOF once owed answers
    /// are written, a socket error, or the line cap. Never called for
    /// close() or shutdown().
    std::function<void(Id)> on_close;
    std::size_t max_line = 0;  ///< client bound; 0 = peer link
  };

  /// Creates the self-pipe and routes SIGTERM/SIGINT to it (one
  /// reactor per process at a time); ignores SIGPIPE.
  Reactor();
  /// shutdown(), then restores the previous SIGTERM/SIGINT handlers.
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Own the listening socket; accepted connections use `handler`.
  void listen(int fd, const Handler* handler);
  /// Own a connected socket as a line connection.
  Id add(int fd, const Handler* handler);
  /// Own a raw fd; `on_ready` runs when it is readable or hung up, and
  /// returning false closes it.
  Id watch(int fd, std::function<bool(int fd)> on_ready);
  void set_handler(Id id, const Handler* handler);

  /// Queue bytes (whole '\n'-framed lines) behind any reserved slots.
  void write(Id id, std::string_view bytes);
  /// Reserve the next response position (0 when `id` is gone).
  Slot reserve(Id id);
  /// Fill a reserved slot with one line; no-op when `id` is gone.
  void fill(Id id, Slot slot, std::string_view line);
  /// Black-hole `id` until it closes: inbound bytes are dropped and
  /// queued output is kept unwritten.
  void hold(Id id);
  /// Close a connection or watch now, dropping its queued output.
  void close(Id id);

  /// Loop until SIGTERM/SIGINT. `tick` runs at the top of every
  /// iteration, before queued output is written, and returns the poll
  /// timeout in ms (-1 = none).
  void run(const std::function<int()>& tick = {});
  /// Write what each socket takes now, then close the listener, every
  /// connection and every watch; no handler runs.
  void shutdown();
  /// Close every owned fd, self-pipe included, writing nothing: for a
  /// forked child that goes on to build its own reactor.
  void close_inherited();

 private:
  struct Pending {
    Slot slot = 0;
    bool ready = false;
    std::string text;  ///< framed
  };
  struct Conn {
    int fd = -1;
    const Handler* handler = nullptr;
    std::string inbuf;
    std::string outbuf;
    std::deque<Pending> slots;  ///< reserved, in request order
    std::size_t slot_bytes = 0;
    Slot next_slot = 1;
    bool held = false;
    bool draining = false;  ///< peer done or capped: close once drained
    std::function<bool(int)> on_ready;  ///< set: a raw watch, not lines
  };

  void enqueue(Conn& conn, std::string text);
  void accept_all();
  void read_lines(Id id);
  /// The reactor closes `id` itself and tells its handler.
  void lose(Id id);
  void flush_all();
  void reap_drained();

  int signal_pipe_[2] = {-1, -1};
  int listener_ = -1;
  const Handler* accept_handler_ = nullptr;
  Id next_id_ = 1;
  std::map<Id, Conn> conns_;  ///< line connections and watches
};

}  // namespace provmark::serve
