//===- support/Socket.cpp - Stream sockets + framing ----------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ursa;

void ursa::ignoreSigpipe() {
  static std::once_flag Once;
  std::call_once(Once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

Status Socket::fail(const std::string &What) {
  LastErr = errno;
  return Status::error("socket", What + ": " + std::strerror(LastErr));
}

Socket::Socket(Socket &&O) noexcept : Fd(O.Fd), LastErr(O.LastErr) {
  O.Fd = -1;
}

Socket &Socket::operator=(Socket &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    LastErr = O.LastErr;
    O.Fd = -1;
  }
  return *this;
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void Socket::shutdown() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

//===----------------------------------------------------------------------===//
// Unix-domain
//===----------------------------------------------------------------------===//

static Status fillUnixAddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.size() >= sizeof(Addr.sun_path))
    return Status::error("socket", "socket path too long: " + Path);
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return Status::ok();
}

StatusOr<Socket> Socket::listenUnix(const std::string &Path, int Backlog) {
  sockaddr_un Addr;
  if (Status St = fillUnixAddr(Path, Addr); !St.isOk())
    return St;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Socket().fail("socket()");
  Socket S(Fd);
  ::unlink(Path.c_str()); // stale socket file from a crashed server
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return S.fail("bind('" + Path + "')");
  if (::listen(Fd, Backlog) != 0)
    return S.fail("listen('" + Path + "')");
  return S;
}

StatusOr<Socket> Socket::connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (Status St = fillUnixAddr(Path, Addr); !St.isOk())
    return St;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Socket().fail("socket()");
  Socket S(Fd);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return S.fail("connect('" + Path + "')");
  return S;
}

//===----------------------------------------------------------------------===//
// TCP
//===----------------------------------------------------------------------===//

/// Fills a v4 or v6 socket address for \p Host (bracket-free; a host
/// containing ':' is parsed as IPv6). Empty host = IPv4 loopback.
static Status fillTcpAddr(const std::string &Host, uint16_t Port,
                          sockaddr_storage &SS, socklen_t &Len, int &Family) {
  std::memset(&SS, 0, sizeof(SS));
  const std::string &H = Host.empty() ? std::string("127.0.0.1") : Host;
  if (H.find(':') != std::string::npos) {
    auto *A6 = reinterpret_cast<sockaddr_in6 *>(&SS);
    A6->sin6_family = AF_INET6;
    A6->sin6_port = htons(Port);
    if (::inet_pton(AF_INET6, H.c_str(), &A6->sin6_addr) != 1)
      return Status::error("socket", "bad IPv6 address: '" + H + "'");
    Len = sizeof(sockaddr_in6);
    Family = AF_INET6;
    return Status::ok();
  }
  auto *A4 = reinterpret_cast<sockaddr_in *>(&SS);
  A4->sin_family = AF_INET;
  A4->sin_port = htons(Port);
  if (::inet_pton(AF_INET, H.c_str(), &A4->sin_addr) != 1)
    return Status::error("socket", "bad IPv4 address: '" + H + "'");
  Len = sizeof(sockaddr_in);
  Family = AF_INET;
  return Status::ok();
}

static void setNodelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// Renders a host for error messages, re-bracketing IPv6.
static std::string displayHost(const std::string &Host) {
  if (Host.find(':') != std::string::npos)
    return "[" + Host + "]";
  return Host;
}

StatusOr<Socket> Socket::listenTcp(const std::string &Host, uint16_t Port,
                                   int Backlog) {
  sockaddr_storage SS;
  socklen_t Len;
  int Family;
  if (Status St = fillTcpAddr(Host, Port, SS, Len, Family); !St.isOk())
    return St;
  int Fd = ::socket(Family, SOCK_STREAM, 0);
  if (Fd < 0)
    return Socket().fail("socket()");
  Socket S(Fd);
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&SS), Len) != 0)
    return S.fail("bind(tcp:" + displayHost(Host) + ":" +
                  std::to_string(Port) + ")");
  if (::listen(Fd, Backlog) != 0)
    return S.fail("listen(tcp:" + std::to_string(Port) + ")");
  return S;
}

StatusOr<Socket> Socket::connectTcp(const std::string &Host, uint16_t Port) {
  sockaddr_storage SS;
  socklen_t Len;
  int Family;
  if (Status St = fillTcpAddr(Host, Port, SS, Len, Family); !St.isOk())
    return St;
  int Fd = ::socket(Family, SOCK_STREAM, 0);
  if (Fd < 0)
    return Socket().fail("socket()");
  Socket S(Fd);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&SS), Len) != 0)
    return S.fail("connect(tcp:" + displayHost(Host) + ":" +
                  std::to_string(Port) + ")");
  setNodelay(Fd);
  return S;
}

uint16_t Socket::localPort() const {
  if (Fd < 0)
    return 0;
  sockaddr_storage SS;
  socklen_t Len = sizeof(SS);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&SS), &Len) != 0)
    return 0;
  if (SS.ss_family == AF_INET)
    return ntohs(reinterpret_cast<sockaddr_in *>(&SS)->sin_port);
  if (SS.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<sockaddr_in6 *>(&SS)->sin6_port);
  return 0;
}

//===----------------------------------------------------------------------===//
// Endpoint strings
//===----------------------------------------------------------------------===//

static bool parseFail(std::string *Err, const std::string &Why) {
  if (Err)
    *Err = Why;
  return false;
}

static bool parsePort(const std::string &PortStr, uint16_t &Port,
                      std::string *Err) {
  if (PortStr.empty())
    return parseFail(Err, "missing port");
  char *End = nullptr;
  long P = std::strtol(PortStr.c_str(), &End, 10);
  if (*End != '\0' || P < 0 || P > 65535)
    return parseFail(Err, "bad port: '" + PortStr + "'");
  Port = uint16_t(P);
  return true;
}

bool Socket::parseEndpoint(const std::string &Ep, bool &IsTcp,
                           std::string &HostOrPath, uint16_t &Port,
                           std::string *Err) {
  IsTcp = false;
  Port = 0;
  if (Err)
    Err->clear();
  if (Ep.rfind("unix:", 0) == 0) {
    HostOrPath = Ep.substr(5);
    if (HostOrPath.empty())
      return parseFail(Err, "empty unix socket path");
    return true;
  }
  if (Ep.rfind("tcp:", 0) != 0) {
    HostOrPath = Ep; // bare path = unix socket
    if (HostOrPath.empty())
      return parseFail(Err, "empty endpoint");
    return true;
  }
  IsTcp = true;
  std::string Rest = Ep.substr(4);
  if (!Rest.empty() && Rest[0] == '[') {
    // Bracketed IPv6: tcp:[::1]:PORT. The brackets keep the address's own
    // colons from being mistaken for the host:port separator.
    size_t Close = Rest.find(']');
    if (Close == std::string::npos)
      return parseFail(Err, "unterminated '[' in '" + Ep + "'");
    HostOrPath = Rest.substr(1, Close - 1);
    if (HostOrPath.empty())
      return parseFail(Err, "empty IPv6 address in '" + Ep + "'");
    if (Close + 1 >= Rest.size() || Rest[Close + 1] != ':')
      return parseFail(Err, "expected ':PORT' after ']' in '" + Ep + "'");
    return parsePort(Rest.substr(Close + 2), Port, Err);
  }
  size_t Colon = Rest.rfind(':');
  std::string PortStr = Colon == std::string::npos ? Rest
                                                   : Rest.substr(Colon + 1);
  HostOrPath = Colon == std::string::npos ? std::string() : Rest.substr(0, Colon);
  if (HostOrPath.find(':') != std::string::npos)
    return parseFail(Err, "IPv6 addresses must be bracketed: tcp:[" +
                              HostOrPath + "]:" + PortStr);
  return parsePort(PortStr, Port, Err);
}

static Status malformedEndpoint(const std::string &Ep,
                                const std::string &Why) {
  return Status::error("socket", "malformed endpoint '" + Ep + "': " +
                                     (Why.empty() ? "unparseable" : Why));
}

StatusOr<Socket> Socket::listenEndpoint(const std::string &Ep, int Backlog) {
  bool IsTcp;
  std::string HostOrPath;
  uint16_t Port;
  std::string Why;
  if (!parseEndpoint(Ep, IsTcp, HostOrPath, Port, &Why))
    return malformedEndpoint(Ep, Why);
  return IsTcp ? listenTcp(HostOrPath, Port, Backlog)
               : listenUnix(HostOrPath, Backlog);
}

StatusOr<Socket> Socket::connectEndpoint(const std::string &Ep) {
  bool IsTcp;
  std::string HostOrPath;
  uint16_t Port;
  std::string Why;
  if (!parseEndpoint(Ep, IsTcp, HostOrPath, Port, &Why))
    return malformedEndpoint(Ep, Why);
  return IsTcp ? connectTcp(HostOrPath, Port) : connectUnix(HostOrPath);
}

//===----------------------------------------------------------------------===//
// Connections and framing
//===----------------------------------------------------------------------===//

StatusOr<Socket> Socket::accept(int TimeoutMs) {
  if (TimeoutMs >= 0) {
    pollfd P{Fd, POLLIN, 0};
    int N = ::poll(&P, 1, TimeoutMs);
    if (N < 0 && errno != EINTR)
      return fail("poll()");
    if (N <= 0)
      return Socket(); // timeout (or EINTR): let the caller re-check
  }
  int Conn = ::accept(Fd, nullptr, nullptr);
  if (Conn < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EINVAL)
      return Socket(); // racing a shutdown; caller re-checks its flag
    return fail("accept()");
  }
  sockaddr_storage SS;
  socklen_t Len = sizeof(SS);
  if (::getsockname(Conn, reinterpret_cast<sockaddr *>(&SS), &Len) == 0 &&
      SS.ss_family == AF_INET)
    setNodelay(Conn);
  return Socket(Conn);
}

Status Socket::setOpTimeoutMs(unsigned Ms) {
  timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = suseconds_t(Ms % 1000) * 1000;
  if (::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv)) != 0)
    return fail("setsockopt(SO_RCVTIMEO)");
  if (::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv)) != 0)
    return fail("setsockopt(SO_SNDTIMEO)");
  return Status::ok();
}

/// Writes all of \p Data, riding out EINTR and partial writes. A stall
/// past the per-operation timeout (EAGAIN from SO_SNDTIMEO) is an error:
/// the peer has stopped draining and the frame can never complete.
Status Socket::writeAll(const char *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        LastErr = EAGAIN;
        return Status::error("socket", "send() timed out mid-frame");
      }
      return fail("send()");
    }
    Data += N;
    Len -= size_t(N);
  }
  return Status::ok();
}

/// Reads exactly \p Len bytes, riding out EINTR and partial reads.
/// CleanEOF distinguishes a clean end-of-stream on the first byte from a
/// connection dropped mid-message; a stall past the per-operation timeout
/// is an error either way (a torn header is not an idle connection).
Status Socket::readAll(char *Data, size_t Len, bool &CleanEOF) {
  CleanEOF = false;
  bool AtStart = true;
  while (Len) {
    ssize_t N = ::recv(Fd, Data, Len, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        LastErr = EAGAIN;
        return Status::error("socket", AtStart
                                           ? "recv() timed out"
                                           : "recv() timed out mid-frame");
      }
      return fail("recv()");
    }
    if (N == 0) {
      if (AtStart) {
        CleanEOF = true;
        return Status::ok();
      }
      LastErr = ECONNRESET;
      return Status::error("socket", "connection closed mid-frame");
    }
    AtStart = false;
    Data += N;
    Len -= size_t(N);
  }
  return Status::ok();
}

Status Socket::sendRaw(std::string_view Bytes) {
  return writeAll(Bytes.data(), Bytes.size());
}

Status Socket::sendFrame(std::string_view Payload) {
  if (Payload.size() > 0xffffffffu)
    return Status::error("socket", "frame too large to encode");
  unsigned char Hdr[4] = {
      static_cast<unsigned char>(Payload.size() >> 24),
      static_cast<unsigned char>(Payload.size() >> 16),
      static_cast<unsigned char>(Payload.size() >> 8),
      static_cast<unsigned char>(Payload.size()),
  };
  if (Status St = writeAll(reinterpret_cast<char *>(Hdr), 4); !St.isOk())
    return St;
  return writeAll(Payload.data(), Payload.size());
}

Status Socket::recvFrame(std::string &Out, FrameEvent &Ev, size_t MaxBytes,
                         int FirstByteTimeoutMs) {
  Out.clear();
  Ev = FrameEvent::Frame;

  if (FirstByteTimeoutMs >= 0) {
    // Idle wait, distinct from the per-operation deadline: no frame has
    // started, so running out of patience here is reaping, not an error.
    pollfd P{Fd, POLLIN, 0};
    int N;
    do {
      N = ::poll(&P, 1, FirstByteTimeoutMs);
    } while (N < 0 && errno == EINTR);
    if (N < 0)
      return fail("poll()");
    if (N == 0) {
      Ev = FrameEvent::IdleTimeout;
      return Status::ok();
    }
  }

  char Hdr[4];
  bool CleanEOF = false;
  if (Status St = readAll(Hdr, 4, CleanEOF); !St.isOk())
    return St;
  if (CleanEOF) {
    Ev = FrameEvent::PeerClosed;
    return Status::ok();
  }
  size_t Len = (size_t(static_cast<unsigned char>(Hdr[0])) << 24) |
               (size_t(static_cast<unsigned char>(Hdr[1])) << 16) |
               (size_t(static_cast<unsigned char>(Hdr[2])) << 8) |
               size_t(static_cast<unsigned char>(Hdr[3]));
  if (Len > MaxBytes)
    return Status::error("socket", "frame of " + std::to_string(Len) +
                                       " bytes exceeds the limit (" +
                                       std::to_string(MaxBytes) + ")");
  Out.resize(Len);
  if (Status St = readAll(Out.data(), Len, CleanEOF); !St.isOk())
    return St;
  if (CleanEOF) { // closed right after the header: still mid-frame
    LastErr = ECONNRESET;
    return Status::error("socket", "connection closed mid-frame");
  }
  return Status::ok();
}
