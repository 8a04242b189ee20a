#include "server/Server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/Logging.hpp"
#include "support/SchedulePerturb.hpp"
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
        support::perturbPoint("server.accept");
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
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
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
    ::close(fd);
    support::MutexLock lock(connMutex_);
    connFds_.erase(std::remove(connFds_.begin(), connFds_.end(), fd),
                   connFds_.end());
}

void
Server::closeAllConnections()
{
    support::MutexLock lock(connMutex_);
    // shutdown() unblocks reads without racing the handler's own
    // close(): the fd stays valid until its thread closes it.
    for (int fd : connFds_)
        ::shutdown(fd, SHUT_RDWR);
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
    closeAllConnections();
    std::vector<std::thread> threads;
    {
        support::MutexLock lock(connMutex_);
        threads.swap(connThreads_);
    }
    for (auto &t : threads)
        t.join();
    ::unlink(path_.c_str());
    inform("server stopped (", connections(), " connection(s) total)");
}

} // namespace pico::server
