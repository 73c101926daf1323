// Deterministic fault-injecting transport proxy for robustness testing.
//
// A ChaosProxy sits between a client and one backend daemon, speaking raw
// SM1F frames on both sides:
//
//   client ──► proxy listen fd ── pump thread (client→backend, direction 0)
//                   │             pump thread (backend→client, direction 1)
//                   └─ per-connection backend connect
//
// Every forwarded frame first draws a fault from a counter-based random
// stream — Rng::ForStream(seed, f(conn_id, direction, frame_idx)) — so the
// fault schedule is a pure function of the proxy seed and each frame's
// coordinates, independent of thread scheduling or wall-clock time. Two runs
// with the same seed and the same per-connection frame sequence inject the
// identical faults, which is what lets the chaos soak assert exact outcomes.
//
// Fault repertoire (mutually exclusive per frame, drawn in this order):
//   drop        — the frame silently vanishes; the waiting peer must rely on
//                 its own read timeout (ClientOptions.read_timeout_ms).
//   delay       — the frame is forwarded after delay_ms (reordering across
//                 connections, latency spikes).
//   truncate    — half of the encoded frame is written, then both sockets
//                 are closed: the receiver observes a connection lost
//                 mid-frame (the "daemon died mid-response" case).
//   corrupt     — one seeded byte of the encoded frame is bit-flipped, then
//                 the frame is forwarded: the receiver sees a bad magic, a
//                 bogus length, or garbage JSON, all of which must surface
//                 as typed parse/frame errors, never a crash. Requests flip
//                 anywhere; responses flip header bytes only, because a
//                 flipped result-payload byte can parse as a plausible wrong
//                 result (SM1F carries no payload checksum) and corruption
//                 must stay detectable for the soak's byte-identity gate.
//   disconnect  — both sockets are closed without forwarding anything.
//
// Daemon kill/restart is *not* a proxy fault: the soak harness owns the
// backend daemon and stops/restarts it directly; the proxy just observes
// the resulting transport failures and passes them through.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/address.h"

namespace sm {

struct ChaosOptions {
  // Where clients connect (Unix path or "host:port"; ":0" picks a free TCP
  // port, reported by address() after Start()).
  std::string listen_address;
  // The real daemon every connection is bridged to (lazily, per accepted
  // connection, so proxied connections never share an upstream socket).
  std::string backend_address;
  std::uint64_t seed = 2009;
  // Per-frame fault probabilities; drawn cumulatively in this order from one
  // uniform, so they must sum to at most 1. All-zero = transparent proxy.
  double drop_probability = 0;
  double delay_probability = 0;
  double truncate_probability = 0;
  double corrupt_probability = 0;
  double disconnect_probability = 0;
  double delay_ms = 20;
  std::size_t max_frame_bytes = 16u << 20;
};

// What the proxy did, for soak-gate accounting. Snapshot is monotonic.
struct ChaosCounters {
  std::uint64_t connections = 0;
  std::uint64_t frames_forwarded = 0;  // clean + delayed + corrupted
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t truncations = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t disconnects = 0;

  std::uint64_t faults() const {
    return drops + delays + truncations + corruptions + disconnects;
  }
};

class ChaosProxy {
 public:
  // Throws std::invalid_argument on a malformed address or probabilities
  // summing past 1.
  explicit ChaosProxy(ChaosOptions options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  // Binds the listener and spawns the accept thread. Throws
  // std::runtime_error when the address cannot be bound. The backend is not
  // contacted until a client connects.
  void Start();

  // Stops accepting and severs every proxied connection. Idempotent.
  void Shutdown();

  // Joins all threads after Shutdown(). Idempotent.
  void Wait();

  // Effective listen address (kernel port filled in for TCP ":0").
  const std::string& address() const {
    return effective_address_.empty() ? options_.listen_address
                                      : effective_address_;
  }

  ChaosCounters SnapshotCounters() const;

 private:
  struct Connection;
  enum class Fault { kNone, kDrop, kDelay, kTruncate, kCorrupt, kDisconnect };

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  // One direction of the bridge: reads frames from `src`, applies the drawn
  // fault, writes to `dst`. direction 0 = client→backend, 1 = backend→client.
  void Pump(const std::shared_ptr<Connection>& conn, int src, int dst,
            int direction);
  Fault DrawFault(std::uint64_t conn_id, int direction,
                  std::uint64_t frame_idx, std::uint64_t* corrupt_pos) const;

  const ChaosOptions options_;

  ServiceAddress listen_parsed_;
  std::string effective_address_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::weak_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 0;

  std::mutex state_mutex_;
  bool started_ = false;
  bool joined_ = false;
  std::atomic<bool> draining_{false};

  std::atomic<std::uint64_t> frames_forwarded_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> truncations_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> connections_total_{0};
};

}  // namespace sm
