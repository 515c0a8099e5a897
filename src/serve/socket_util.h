// AF_UNIX plumbing shared by the serve daemon, the cluster router and
// their clients: listener creation with stale-socket recovery, client
// connects, and line splitting. The event loop itself is
// serve/reactor.h.
//
// Stale sockets: a SIGKILLed daemon leaves its socket path behind, and
// a blind unlink-before-bind would also steal the address out from
// under a *live* daemon. make_unix_listener therefore connect-probes an
// existing path first: a successful connect means someone is serving —
// fail with EADDRINUSE; a refused connect means the inode is an orphan
// — unlink it and bind. Non-socket files are never unlinked.
#pragma once

#include <string>

namespace provmark::serve {

/// Create, bind and listen on an AF_UNIX stream socket at `path`.
/// Returns the listening fd, or -1 with errno set (EADDRINUSE when a
/// live daemon already answers at `path`; EEXIST when the path exists
/// but is not a socket). On failure `*error`, when non-null, receives a
/// one-line human diagnostic.
int make_unix_listener(const std::string& path, std::string* error = nullptr);

/// Blocking connect to the AF_UNIX stream socket at `path`. Returns the
/// fd, or -1 with errno set.
int connect_unix(const std::string& path);

/// Pop one complete line from `inbuf` ('\r' stripped); false when no
/// full line is buffered.
bool next_line(std::string& inbuf, std::string& line);

}  // namespace provmark::serve
