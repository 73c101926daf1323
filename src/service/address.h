// Service endpoint addressing: one string names either a Unix-domain
// socket path or a TCP host:port, so every tool that takes an address
// (`ServiceClient`, `speedmask_cli --socket`, `SpeedmaskServer`,
// `ChaosProxy`) speaks both transports through the same flag.
//
// Grammar:
//   <address> := <unix-path> | <host> ":" <port>
//   A spec containing '/' is always a Unix path (paths may contain ':').
//   Otherwise a single ':' splits host and port; "localhost:7421",
//   "127.0.0.1:0" (port 0 = kernel-assigned, resolved by the listener) and
//   bare relative socket names ("speedmask.sock") are all valid. Malformed
//   specs — empty string, empty host or port, non-numeric or out-of-range
//   port, more than one ':' (IPv6 literals are not supported) — throw
//   std::invalid_argument with a message naming the offending spec.
#pragma once

#include <string>

namespace sm {

enum class AddressKind { kUnixSocket, kTcp };

struct ServiceAddress {
  AddressKind kind = AddressKind::kUnixSocket;
  std::string path;  // kUnixSocket: filesystem path
  std::string host;  // kTcp: hostname or IPv4 literal
  int port = 0;      // kTcp: 0 = ephemeral (listeners only)

  // Canonical spec string ("path" or "host:port").
  std::string ToString() const;
};

// Parses `spec` per the grammar above; throws std::invalid_argument on a
// malformed address.
ServiceAddress ParseServiceAddress(const std::string& spec);

// Blocking connect to `address`. Returns the connected fd, or -1 with errno
// set when the endpoint is unreachable (callers decide whether to retry).
// TCP sockets get TCP_NODELAY so small request frames are not Nagle-delayed.
int ConnectToAddress(const ServiceAddress& address);

// Creates, binds and listens on `address`. Unix listeners unlink a stale
// socket file first; TCP listeners bind with SO_REUSEADDR. Throws
// std::runtime_error on failure. On success *effective is set to the
// canonical address actually bound — for a TCP spec with port 0 this is
// where the kernel-assigned port is reported.
int BindAndListen(const ServiceAddress& address, int backlog,
                  std::string* effective);

// Post-accept transport tuning for a server-side connection fd: TCP_NODELAY
// on TCP sockets, and SO_SNDTIMEO (when write_timeout_ms > 0) on both
// transports so a client that never reads its responses is abandoned
// instead of wedging a worker.
void TuneAcceptedSocket(int fd, AddressKind kind, int write_timeout_ms);

}  // namespace sm
