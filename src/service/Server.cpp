//===- service/Server.cpp - Socket front end for the service --------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "obs/Stats.h"

#include <algorithm>
#include <unistd.h>

using namespace ursa;
using namespace ursa::service;

URSA_STAT(StatServerConns, "ursa.service.connections",
          "connections accepted by the server");
URSA_STAT(StatServerIdleReaped, "ursa.service.idle_reaped",
          "idle connections closed by the reaper");
URSA_STAT(StatServerFrameErrors, "ursa.service.frame_errors",
          "connections dropped on a transport-level frame error");

Server::Server(std::string Endpoint, const ServiceConfig &C)
    : Path(std::move(Endpoint)), Service(C) {}

void Server::Conn::send(const ServiceResponse &R) {
  std::lock_guard<std::mutex> L(WriteMu);
  // A send failure means the client went away; its remaining responses
  // will fail the same way and the reader thread is already unwinding.
  (void)Sock.sendFrame(writeResponse(R));
}

Status Server::start() {
  ignoreSigpipe();
  bool IsTcp = false;
  std::string HostOrPath;
  uint16_t Port = 0;
  if (!Socket::parseEndpoint(Path, IsTcp, HostOrPath, Port))
    return Status::error("service", "malformed endpoint: '" + Path + "'");
  IsUnix = !IsTcp;
  StatusOr<Socket> L = Socket::listenEndpoint(Path);
  if (!L.isOk())
    return L.status();
  Listener = std::move(*L);
  return Status::ok();
}

void Server::sweepThreads(bool All) {
  std::vector<std::thread> Joinable;
  {
    std::lock_guard<std::mutex> L(ConnsMu);
    auto It = ConnThreads.begin();
    while (It != ConnThreads.end()) {
      bool Done = All || !It->second || It->second->ReaderDone.load();
      if (Done) {
        Joinable.push_back(std::move(It->first));
        It = ConnThreads.erase(It);
      } else {
        ++It;
      }
    }
    if (All) {
      Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                 [](const std::weak_ptr<Conn> &W) {
                                   return W.expired();
                                 }),
                  Conns.end());
    }
  }
  for (std::thread &T : Joinable)
    if (T.joinable())
      T.join();
}

void Server::run() {
  while (!StopFlag.load()) {
    StatusOr<Socket> A = Listener.accept(/*TimeoutMs=*/200);
    if (!A.isOk())
      break; // listener is gone; nothing left to accept
    sweepThreads(/*All=*/false);
    if (!A->valid())
      continue; // timeout: re-check the stop flag
    if (unsigned Ms = Service.config().IoTimeoutMs)
      (void)A->setOpTimeoutMs(Ms);
    StatServerConns.add();
    auto C = std::make_shared<Conn>(std::move(*A));
    {
      std::lock_guard<std::mutex> L(ConnsMu);
      Conns.push_back(C);
      ConnThreads.emplace_back(std::thread([this, C] { serveConnection(C); }),
                               C);
    }
  }

  // Drain: stop admission, finish every queued compile, flush responses
  // while the connection readers are still alive to carry them.
  Listener.close();
  Service.stop(/*Drain=*/true);

  // Now unblock the readers and collect the threads.
  {
    std::lock_guard<std::mutex> L(ConnsMu);
    for (std::weak_ptr<Conn> &W : Conns)
      if (std::shared_ptr<Conn> C = W.lock())
        C->Sock.shutdown();
  }
  sweepThreads(/*All=*/true);
  if (IsUnix)
    ::unlink(Path.c_str());
}

Server::~Server() {
  // run() normally joins everything; this covers servers that were
  // started but whose run() was never reached (e.g. start() failed later
  // in the caller).
  sweepThreads(/*All=*/true);
}

void Server::serveConnection(std::shared_ptr<Conn> C) {
  const obs::JsonParseLimits Limits = Service.parseLimits();
  const unsigned IdleMs = Service.config().IdleTimeoutMs;
  for (;;) {
    std::string Frame;
    Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
    // Frame cap: the JSON byte limit plus slack for framing; an oversized
    // frame desynchronizes the stream, so the connection drops.
    Status St = C->Sock.recvFrame(
        Frame, Ev,
        size_t(Limits.MaxBytes ? Limits.MaxBytes + 4096 : 64u << 20),
        IdleMs ? int(IdleMs) : -1);
    if (!St.isOk()) {
      // Torn header, mid-frame EOF, oversized or stalled frame: the
      // stream is unrecoverable; drop the connection, keep the server.
      StatServerFrameErrors.add();
      break;
    }
    if (Ev == Socket::FrameEvent::PeerClosed)
      break;
    if (Ev == Socket::FrameEvent::IdleTimeout) {
      StatServerIdleReaped.add();
      break;
    }

    ServiceRequest R;
    if (Status PS = parseRequest(Frame, R, Limits); !PS.isOk()) {
      ServiceResponse Resp;
      Resp.Status = ServiceResponse::StatusKind::Error;
      Resp.Id = R.Id; // best effort: may have parsed before the failure
      Resp.Error = PS.message();
      C->send(Resp);
      continue;
    }

    // Worker threads answer compiles through the connection's write
    // lock; the Conn outlives this reader via the shared_ptr captures.
    bool KeepServing = Service.handle(
        R, [C](const ServiceResponse &Resp) { C->send(Resp); });
    if (!KeepServing) {
      StopFlag.store(true);
      break; // run() notices within one accept timeout
    }
  }
  C->Sock.shutdown();
  C->ReaderDone.store(true);
}
