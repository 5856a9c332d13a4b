//===- service/Server.h - Socket front end for the service ------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport layer of `ursa_served`: a stream socket — Unix-domain or
/// TCP, per the endpoint string — accepting length-prefixed JSON frames
/// (support/Socket.h, schemas in service/Protocol.h) and routing them into
/// a CompileService. One reader thread per connection; responses may be
/// written out of order by worker threads, serialized per connection, so
/// clients can pipeline requests and match responses by id (ursa_batch
/// does).
///
/// Robustness: SIGPIPE is ignored process-wide at start(); per-operation
/// socket deadlines (ServiceConfig::IoTimeoutMs) stop a stalled peer from
/// pinning a reader mid-frame; idle connections are reaped after
/// ServiceConfig::IdleTimeoutMs with no frame started; finished reader
/// threads are swept by the accept loop so a long-lived server does not
/// accumulate dead thread handles.
///
/// Shutdown (a `shutdown` request or requestStop()) is a drain: the
/// listener closes, queued compiles finish and their responses flush,
/// then the remaining connections are torn down.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_SERVICE_SERVER_H
#define URSA_SERVICE_SERVER_H

#include "service/CompileService.h"
#include "support/Socket.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ursa::service {

class Server {
public:
  /// \p Endpoint is "unix:PATH", a bare socket path, or "tcp:HOST:PORT"
  /// (see support/Socket.h). TCP port 0 is allowed; port() reports the
  /// kernel's pick after start(). The server owns a CompileService built
  /// from \p C and takes its transport knobs from the same config.
  Server(std::string Endpoint, const ServiceConfig &C);

  ~Server();

  /// Binds and listens on the endpoint. Call before run().
  Status start();

  /// Serves until a shutdown request arrives (or requestStop()), then
  /// drains the compile queue and tears the connections down. Blocks.
  void run();

  /// Asks run() to finish; safe from any thread or a signal-adjacent
  /// context (it only sets a flag — run() polls it between accepts).
  void requestStop() { StopFlag.store(true); }

  /// The owned CompileService.
  CompileService &service() { return Service; }

  const std::string &path() const { return Path; }

  /// The bound TCP port (0 for Unix endpoints or before start()).
  uint16_t port() const { return Listener.localPort(); }

private:
  /// Per-connection shared state: the socket plus the write lock that
  /// serializes response frames from worker threads.
  struct Conn {
    Socket Sock;
    std::mutex WriteMu;
    std::atomic<bool> ReaderDone{false};
    explicit Conn(Socket S) : Sock(std::move(S)) {}
    void send(const ServiceResponse &R);
  };

  void serveConnection(std::shared_ptr<Conn> C);

  /// Joins reader threads whose connections have finished (accept-loop
  /// housekeeping; with \p All also joins the live ones — shutdown).
  void sweepThreads(bool All);

  std::string Path;
  bool IsUnix = true; ///< endpoint kind, for the socket-file unlink
  CompileService Service;
  Socket Listener;
  std::atomic<bool> StopFlag{false};

  std::mutex ConnsMu;
  std::vector<std::weak_ptr<Conn>> Conns;
  std::vector<std::pair<std::thread, std::shared_ptr<Conn>>> ConnThreads;
};

} // namespace ursa::service

#endif // URSA_SERVICE_SERVER_H
