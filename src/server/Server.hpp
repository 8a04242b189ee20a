/**
 * @file
 * Unix-domain-socket front end of the evaluation service.
 *
 * The Server owns only transport concerns: it binds a stream socket,
 * accepts connections on a poll loop (so stop() is honored promptly),
 * and runs one thread per connection that reads request frames,
 * hands them to the EvalService, and writes response frames back.
 * Every robustness decision — admission, deadlines, shedding,
 * drain — lives in the service, which is why the chaos tests can
 * bypass this layer entirely.
 *
 * A connection that sends garbage gets a bad_request response (when
 * a frame was at least well-delimited) or is closed (when framing
 * itself broke); either way the listener and the other connections
 * are unaffected.
 */

#ifndef PICO_SERVER_SERVER_HPP
#define PICO_SERVER_SERVER_HPP

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "server/EvalService.hpp"
#include "support/ThreadAnnotations.hpp"

namespace pico::server
{

/** Socket acceptor over one EvalService. */
class Server
{
  public:
    /**
     * Bind and listen on a Unix domain socket (an existing socket
     * file is replaced). fatal() when binding fails.
     * @param socket_path filesystem path of the socket
     * @param service the service handling the requests (not owned;
     *        must outlive the server)
     */
    Server(std::string socket_path, EvalService *service);

    /** Stops and joins if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Accept loop; returns after stop(). Run it on its own thread
     *  or let serve-forever mains call it directly. */
    void run();

    /**
     * Stop accepting, unblock every connection thread and join them.
     * Idempotent and callable from a thread other than run()'s (the
     * signal-watcher pattern); does NOT drain the service — callers
     * sequence service.drain() after stop().
     */
    void stop();

    /** Connections accepted so far. */
    uint64_t connections() const
    {
        return connections_.load(std::memory_order_relaxed);
    }

  private:
    void handleConnection(int fd);
    /** Close every open connection fd (wakes blocked reads). */
    void closeAllConnections();

    std::string path_;
    EvalService *service_;
    /** Listening socket. run() reads it until it returns, so stop()
     *  only shuts it down and the destructor closes it. */
    int listenFd_ = -1;
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> connections_{0};

    support::Mutex connMutex_{"server.conn",
                              support::rank::kServerConn};
    /** Open connection fds, for shutdown-time unblocking. */
    std::vector<int> connFds_ PICO_GUARDED_BY(connMutex_);
    std::vector<std::thread> connThreads_
        PICO_GUARDED_BY(connMutex_);
};

} // namespace pico::server

#endif // PICO_SERVER_SERVER_HPP
