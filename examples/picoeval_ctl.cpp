/**
 * @file
 * Operator CLI for a running picoeval_server: send one introspection
 * verb and print the response.
 *
 * Usage: picoeval_ctl --socket PATH VERB [--request-id N]
 *
 *   VERB             ping | stats | health | dump-trace
 *   --request-id N   the request id to drain (dump-trace only; eval
 *                    responses return theirs in v.request.id)
 *
 * stats/health/ping print the response's `key value` pairs, one per
 * line, sorted — greppable and diffable. A response body (the
 * dump-trace span tree, health's last-fault record) is printed raw
 * on stdout so it can be piped straight into a JSON validator:
 *
 *     picoeval_ctl --socket /tmp/s.sock dump-trace --request-id 7 \
 *         | python3 -m json.tool
 *
 * Exit codes: 0 = verb answered ok; 1 = non-ok response; 2 = usage.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "server/Client.hpp"

#include "CliFlags.hpp"

using namespace pico;
using cli::flagValue;

int
main(int argc, char **argv)
{
    std::string socket_path, verb, value;
    uint64_t request_id = 0;
    for (int i = 1; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--socket", socket_path)) {
        } else if (flagValue(argc, argv, i, "--request-id", value)) {
            request_id = std::strtoull(value.c_str(), nullptr, 10);
        } else if (argv[i][0] != '-' && verb.empty()) {
            verb = argv[i];
        } else {
            std::cerr << "unknown argument: " << argv[i] << "\n";
            return 2;
        }
    }
    if (socket_path.empty() || verb.empty()) {
        std::cerr << "usage: picoeval_ctl --socket PATH "
                     "ping|stats|health|dump-trace "
                     "[--request-id N]\n";
        return 2;
    }

    server::ClientOptions copts;
    copts.socketPath = socket_path;
    // One shot: an operator probing a wedged server wants the error,
    // not a retry loop.
    copts.maxAttempts = 1;
    server::Client client(copts);

    server::Request req;
    req.type = verb;
    req.requestId = request_id;
    server::Response resp = client.call(req);
    if (resp.status != server::Status::Ok) {
        std::cerr << "error: " << server::statusName(resp.status)
                  << (resp.error.empty() ? "" : ": " + resp.error)
                  << "\n";
        return 1;
    }
    if (verb == "dump-trace") {
        // Body only: pipeable straight into a JSON validator.
        std::cout << resp.body << "\n";
    } else {
        for (const auto &[k, v] : resp.values)
            std::cout << k << " " << v << "\n";
        if (!resp.body.empty())
            std::cout << "body " << resp.body << "\n";
    }
    return 0;
}
