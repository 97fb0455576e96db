#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/failpoint.h"
#include "common/telemetry.h"

namespace hd {

namespace {

// Listener/session telemetry (docs/OBSERVABILITY.md "Server" glossary).
struct ListenerStats {
  TCounter* connections =
      Telemetry::Instance().Counter("server.connections");
  TCounter* refused = Telemetry::Instance().Counter("server.refused");
  TCounter* accept_errors =
      Telemetry::Instance().Counter("server.accept_errors");
  TGauge* sessions_active =
      Telemetry::Instance().Gauge("server.sessions_active");
};

ListenerStats& LStats() {
  static ListenerStats s;
  return s;
}

void SetRecvTimeout(int fd, int ms) {
  if (ms <= 0) return;
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

}  // namespace

/// One session worker: a poll() loop over its sessions' sockets plus a
/// wake pipe the accept thread (and Stop) writes to.
struct Server::Worker {
  std::thread thread;
  int wake_pipe[2] = {-1, -1};  // [0] read end polled, [1] written to wake
  std::mutex mu;                // guards pending (handoff from accept)
  std::vector<std::unique_ptr<Session>> pending;
  std::vector<std::unique_ptr<Session>> sessions;  // worker-thread only

  void Wake() {
    const char b = 1;
    // A full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_pipe[1], &b, 1);
  }
};

Server::Server(Database* db, ServerOptions opts) : db_(db), opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.shared_scans) {
    scan_scheduler_ = std::make_unique<ScanScheduler>();
  }
  if (opts_.admission_slots > 0) {
    AdmissionOptions ao;
    ao.max_concurrent = opts_.admission_slots;
    admission_ = std::make_unique<AdmissionController>(ao);
  }
  if (opts_.query_store_capacity > 0) {
    QueryStoreOptions qo;
    qo.capacity = opts_.query_store_capacity;
    qo.slow_query_ms = opts_.slow_query_ms;
    qo.qlog_path = opts_.qlog_path;
    query_store_ = std::make_unique<QueryStore>(qo);
  }
}

Server::~Server() { Stop(); }

SessionEnv Server::MakeEnv() {
  SessionEnv env;
  env.db = db_;
  env.txns = &txns_;
  env.scan_scheduler = scan_scheduler_.get();
  env.admission = admission_.get();
  env.query_store = query_store_.get();
  env.max_dop = opts_.max_dop;
  env.memory_grant_bytes = opts_.memory_grant_bytes;
  env.max_frame_bytes = opts_.max_frame_bytes;
  return env;
}

Status Server::Start() {
  if (running_.load()) return Status::InvalidArgument("server already running");
  // Durability, if the caller opened it on the database, routes every
  // session's COMMIT/ROLLBACK through the WAL.
  txns_.BindWal(db_->wal());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    Status s = Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status s = Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  stop_.store(false);
  workers_.clear();
  for (int i = 0; i < opts_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    // The wake pipe's read end must be non-blocking: the drain loop in
    // WorkerLoop reads until empty.
    if (::pipe(w->wake_pipe) != 0 ||
        ::fcntl(w->wake_pipe[0], F_SETFL, O_NONBLOCK) != 0) {
      Status s = Status::IoError(std::string("pipe: ") + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      workers_.push_back(std::move(w));
      for (auto& prev : workers_) {
        if (prev->wake_pipe[0] >= 0) ::close(prev->wake_pipe[0]);
        if (prev->wake_pipe[1] >= 0) ::close(prev->wake_pipe[1]);
      }
      workers_.clear();
      return s;
    }
    workers_.push_back(std::move(w));
  }
  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    Worker* wp = w.get();
    w->thread = std::thread([this, wp] { WorkerLoop(wp); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true);
  // Wake AcceptLoop's poll() with shutdown, join it, and only then close
  // the listener: closing first would let the fd number be reused while
  // the loop still polls it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& w : workers_) {
    w->Wake();
    if (w->thread.joinable()) w->thread.join();
    ::close(w->wake_pipe[0]);
    ::close(w->wake_pipe[1]);
  }
  workers_.clear();
}

void Server::AcceptLoop() {
  size_t next_worker = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (stop_.load(std::memory_order_acquire)) break;
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      LStats().accept_errors->Add(1);
      continue;
    }
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    LStats().connections->Add(1);
    // Connection-level fault seam: an injected failure drops the freshly
    // accepted connection, as a listener hitting EMFILE or a half-open
    // TCP handshake would (docs/ROBUSTNESS.md).
    if (Status fp = EvalFailPoint("server.accept"); !fp.ok()) {
      LStats().accept_errors->Add(1);
      ::close(fd);
      continue;
    }
    if (sessions_active_.load(std::memory_order_relaxed) >=
        opts_.max_sessions) {
      LStats().refused->Add(1);
      (void)WriteFrame(fd, MsgType::kError,
                       EncodeError({Code::kResourceExhausted,
                                    "server at max_sessions"}));
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    SetRecvTimeout(fd, opts_.read_timeout_ms);
    auto session = std::make_unique<Session>(
        next_session_id_.fetch_add(1, std::memory_order_relaxed), fd,
        MakeEnv());
    sessions_active_.fetch_add(1, std::memory_order_relaxed);
    LStats().sessions_active->Add(1);
    Worker* w = workers_[next_worker % workers_.size()].get();
    ++next_worker;
    {
      std::lock_guard<std::mutex> g(w->mu);
      w->pending.push_back(std::move(session));
    }
    w->Wake();
  }
}

void Server::WorkerLoop(Worker* w) {
  auto retire = [&](size_t idx) {
    w->sessions.erase(w->sessions.begin() + static_cast<long>(idx));
    sessions_active_.fetch_sub(1, std::memory_order_relaxed);
    LStats().sessions_active->Add(-1);
  };
  while (true) {
    {
      std::lock_guard<std::mutex> g(w->mu);
      for (auto& s : w->pending) w->sessions.push_back(std::move(s));
      w->pending.clear();
    }
    if (stop_.load(std::memory_order_acquire)) break;

    std::vector<pollfd> pfds;
    pfds.reserve(w->sessions.size() + 1);
    pfds.push_back({w->wake_pipe[0], POLLIN, 0});
    for (const auto& s : w->sessions) {
      pfds.push_back({s->fd(), POLLIN, 0});
    }
    const int pr = ::poll(pfds.data(), pfds.size(), 200);
    if (pr <= 0) continue;
    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(w->wake_pipe[0], buf, sizeof buf) > 0) {
      }
    }
    // Walk backwards so retiring a session does not shift unvisited
    // indices (pfds[i + 1] pairs with sessions[i]).
    for (size_t i = w->sessions.size(); i-- > 0;) {
      const short ev = pfds[i + 1].revents;
      if (ev == 0) continue;
      if ((ev & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // POLLHUP with queued data still delivers the data first; Pump
        // reads one frame and reports EOF/err via its Outcome.
        if (w->sessions[i]->Pump() == Session::Outcome::kClose) retire(i);
      }
    }
  }
  // Drain: session destructors abort open transactions (releasing their
  // locks) and close sockets.
  while (!w->sessions.empty()) retire(w->sessions.size() - 1);
  {
    std::lock_guard<std::mutex> g(w->mu);
    for (auto& s : w->pending) {
      w->sessions.push_back(std::move(s));
    }
    w->pending.clear();
  }
  while (!w->sessions.empty()) retire(w->sessions.size() - 1);
}

}  // namespace hd
