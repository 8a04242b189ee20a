#include "server/Server.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/Hooks.hpp"
#include "support/Logging.hpp"
#include "support/TraceEvents.hpp"

namespace pico::server
{

Server::Server(std::string socket_path, EvalService *service)
    : path_(std::move(socket_path)), service_(service)
{
    fatalIf(service_ == nullptr, "server needs a service");
    fatalIf(path_.empty(), "server needs a socket path");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    fatalIf(path_.size() >= sizeof(addr.sun_path),
            "socket path too long: ", path_);
    std::strncpy(addr.sun_path, path_.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    fatalIf(listenFd_ < 0,
            "cannot create socket: ", std::strerror(errno));
    // A stale socket file from a crashed previous server would make
    // bind fail; replacing it is the restart-friendly behavior.
    ::unlink(path_.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int err = errno;
        ::close(listenFd_);
        fatal("cannot bind ", path_, ": ", std::strerror(err));
    }
    if (::listen(listenFd_, 64) != 0) {
        int err = errno;
        ::close(listenFd_);
        ::unlink(path_.c_str());
        fatal("cannot listen on ", path_, ": ", std::strerror(err));
    }
    inform("server listening on ", path_);
}

Server::~Server()
{
    stop();
    ::close(listenFd_);
}

void
Server::run()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        reapFinished();
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        // Short poll timeout so stop() (from a signal watcher) is
        // honored within ~100 ms even with no traffic.
        int ready = ::poll(&pfd, 1, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("poll failed: ", std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        // The window a stop() can land in: a shut-down listener still
        // hands out a connection queued before the shutdown.
        support::hookPoint("server.accept");
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (!stopping_.load(std::memory_order_acquire))
                warn("accept failed: ", std::strerror(errno));
            break;
        }
        support::MutexLock lock(connMutex_);
        // stop() sets stopping_ before it locks connMutex_ to shut the
        // connections down and take their threads, so checking it
        // under the lock drops a late connection instead of leaving
        // it unjoined.
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            break;
        }
        connections_.fetch_add(1, std::memory_order_relaxed);
        Connection &conn = conns_.emplace_back();
        conn.fd = fd;
        conn.handler = std::thread([this, &conn] { handleConnection(conn); });
    }
}

void
Server::handleConnection(Connection &conn)
{
    const int fd = conn.fd;
    // Admit-side spans (server.request) land on this track.
    support::TraceRecorder::instance().nameThisThread(
        "server-conn-" + std::to_string(fd));
    std::string payload;
    while (readFrame(fd, payload)) {
        Request req;
        Response resp;
        std::string error;
        if (decodeRequest(payload, req, error)) {
            resp = service_->call(req);
        } else {
            // A malformed but well-framed request gets a terminal
            // bad_request — the client must not retry it.
            resp.status = Status::BadRequest;
            resp.error = error;
        }
        if (!writeFrame(fd, encodeResponse(resp)))
            break;
    }
    // Close under the lock that stop() shuts connections down under,
    // so stop() never shuts down a descriptor already closed and
    // perhaps reused by a newer connection.
    support::MutexLock lock(connMutex_);
    ::close(fd);
    conn.finished = true;
}

void
Server::reapFinished()
{
    std::list<Connection> finished;
    {
        support::MutexLock lock(connMutex_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            auto next = std::next(it);
            if (it->finished)
                finished.splice(finished.end(), conns_, it);
            it = next;
        }
    }
    // A finished handler has only its return left to run.
    for (auto &conn : finished)
        conn.handler.join();
}

void
Server::stop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    // Wakes run()'s poll(); run() drops whatever it accepts from now
    // on. The fd stays open until the destructor (see listenFd_).
    ::shutdown(listenFd_, SHUT_RDWR);
    std::list<Connection> conns;
    {
        support::MutexLock lock(connMutex_);
        // shutdown() unblocks a handler's reads without racing its
        // close(): an unfinished handler has not closed its fd yet.
        for (const auto &conn : conns_) {
            if (!conn.finished)
                ::shutdown(conn.fd, SHUT_RDWR);
        }
        conns.swap(conns_);
    }
    // Splicing and swapping move list nodes, so each handler still
    // finds its entry here.
    for (auto &conn : conns)
        conn.handler.join();
    ::unlink(path_.c_str());
    inform("server stopped (", connections(), " connection(s) total)");
}

} // namespace pico::server
