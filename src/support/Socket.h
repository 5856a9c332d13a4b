//===- support/Socket.h - Stream sockets + framing --------------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport under the compile service: RAII stream sockets —
/// Unix-domain or TCP (loopback by default) — plus length-prefixed message
/// framing. A frame is a 4-byte big-endian payload length followed by that
/// many bytes (the service puts JSON in them; this layer does not care).
///
/// Robustness contract:
///  * all failures come back as Status — short reads, peer resets, torn
///    frames, and oversized frames are ordinary errors, never aborts;
///  * every read/write loops over partial transfers and retries EINTR, so
///    a signal mid-frame never kills a connection;
///  * per-operation deadlines (setOpTimeoutMs) bound how long one peer can
///    stall the other mid-frame, and recvFrame takes a separate first-byte
///    timeout so servers can reap idle connections without cutting off a
///    slow frame in flight;
///  * SIGPIPE is never raised: sends use MSG_NOSIGNAL, and ignoreSigpipe()
///    shields any path that slips past it (call once in process setup).
///
/// Endpoints are spelled as strings shared by server and client flags:
///   "unix:PATH" or a bare path   Unix-domain socket at PATH
///   "tcp:HOST:PORT"              TCP (HOST may be empty = 127.0.0.1)
///   "tcp:[V6]:PORT"              TCP over IPv6 (brackets required, so the
///                                address colons don't split the port)
///   "tcp:PORT"                   TCP on loopback
/// TCP listeners may bind port 0; localPort() reports the kernel's pick.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_SUPPORT_SOCKET_H
#define URSA_SUPPORT_SOCKET_H

#include "support/Status.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ursa {

/// Ignores SIGPIPE process-wide (idempotent). Server and client setup call
/// this so a peer vanishing mid-write surfaces as an EPIPE Status instead
/// of killing the process.
void ignoreSigpipe();

/// An owned socket file descriptor (listener or connection).
class Socket {
public:
  Socket() = default;
  ~Socket() { close(); }

  Socket(Socket &&O) noexcept;
  Socket &operator=(Socket &&O) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  //===--- Unix-domain -----------------------------------------------------===//

  /// Binds and listens on \p Path, unlinking any stale socket file first.
  static StatusOr<Socket> listenUnix(const std::string &Path,
                                     int Backlog = 16);

  /// Connects to the server listening on \p Path.
  static StatusOr<Socket> connectUnix(const std::string &Path);

  /// Historical names (the service grew up on Unix sockets).
  static StatusOr<Socket> listen(const std::string &Path, int Backlog = 16) {
    return listenUnix(Path, Backlog);
  }
  static StatusOr<Socket> connect(const std::string &Path) {
    return connectUnix(Path);
  }

  //===--- TCP -------------------------------------------------------------===//

  /// Binds and listens on \p Host:\p Port (empty host = loopback). Port 0
  /// lets the kernel choose; read it back with localPort().
  static StatusOr<Socket> listenTcp(const std::string &Host, uint16_t Port,
                                    int Backlog = 16);

  /// Connects to \p Host:\p Port (empty host = loopback).
  static StatusOr<Socket> connectTcp(const std::string &Host, uint16_t Port);

  //===--- Endpoint strings ------------------------------------------------===//

  /// Splits an endpoint string (see file header) into its parts. Returns
  /// false when \p Ep is not a well-formed endpoint (e.g. "tcp:" with a
  /// non-numeric port, or an unbracketed IPv6 address); \p Err, when
  /// non-null, receives a one-line explanation. IPv6 hosts come back with
  /// their brackets stripped ("tcp:[::1]:80" yields host "::1").
  static bool parseEndpoint(const std::string &Ep, bool &IsTcp,
                            std::string &HostOrPath, uint16_t &Port,
                            std::string *Err = nullptr);

  static StatusOr<Socket> listenEndpoint(const std::string &Ep,
                                         int Backlog = 16);
  static StatusOr<Socket> connectEndpoint(const std::string &Ep);

  //===--- Connections -----------------------------------------------------===//

  /// Accepts one connection on a listening socket. Blocks up to
  /// \p TimeoutMs (-1 = forever); a timeout returns an invalid socket
  /// with an OK status so accept loops can poll a stop flag.
  StatusOr<Socket> accept(int TimeoutMs = -1);

  /// Bounds every subsequent blocking read/write on this socket: an
  /// operation that makes no progress for \p Ms milliseconds fails with a
  /// "timed out" Status (and lastErrno() EAGAIN). 0 restores the
  /// unbounded default. This is the per-operation deadline that keeps a
  /// stalled peer from pinning a worker mid-frame.
  Status setOpTimeoutMs(unsigned Ms);

  /// Writes one length-prefixed frame (the whole payload or an error).
  Status sendFrame(std::string_view Payload);

  /// Writes raw bytes with no framing. The wire-level fault injector and
  /// the malformed-input tests speak through this; production code always
  /// uses sendFrame.
  Status sendRaw(std::string_view Bytes);

  /// What recvFrame observed besides a payload.
  enum class FrameEvent {
    Frame,      ///< a complete frame was read into Out
    PeerClosed, ///< clean end-of-stream before any header byte
    IdleTimeout ///< no header byte within FirstByteTimeoutMs
  };

  /// Reads one length-prefixed frame into \p Out. \p FirstByteTimeoutMs
  /// bounds only the wait for the first header byte (-1 = wait forever);
  /// once a frame has started, the per-operation timeout governs. Frames
  /// longer than \p MaxBytes are an error (the stream is then out of sync
  /// and the connection should be dropped), as are torn headers, mid-frame
  /// EOF, and mid-frame stalls past the op timeout.
  Status recvFrame(std::string &Out, FrameEvent &Ev,
                   size_t MaxBytes = 64u << 20, int FirstByteTimeoutMs = -1);

  /// Shuts down both directions, unblocking any thread inside
  /// recvFrame/sendFrame on this socket (used for server shutdown).
  void shutdown();

  void close();
  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// The port a TCP socket is bound/connected on (0 for Unix sockets or
  /// errors). After listenTcp(host, 0) this is the kernel-assigned port.
  uint16_t localPort() const;

  /// errno of the last failed operation on this socket (0 if none). The
  /// retry layer classifies failures with this (ECONNREFUSED, EPIPE, ...).
  int lastErrno() const { return LastErr; }

private:
  explicit Socket(int FdIn) : Fd(FdIn) {}

  Status fail(const std::string &What); ///< captures errno into LastErr

  Status writeAll(const char *Data, size_t Len);
  /// Reads exactly Len bytes; CleanEOF reports EOF on the first byte.
  Status readAll(char *Data, size_t Len, bool &CleanEOF);

  int Fd = -1;
  int LastErr = 0;
};

/// Historical name: the transport predates TCP support.
using UnixSocket = Socket;

} // namespace ursa

#endif // URSA_SUPPORT_SOCKET_H
