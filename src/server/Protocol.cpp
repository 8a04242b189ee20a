#include "server/Protocol.hpp"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

#include "support/Logging.hpp"

namespace pico::server
{

std::string
Request::idempotencyKey() const
{
    if (!key.empty())
        return key;
    return type + ";" + app + ";" + machines + ";tb" +
           std::to_string(traceBlocks);
}

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok:
        return "ok";
    case Status::Shed:
        return "shed";
    case Status::DeadlineExceeded:
        return "deadline_exceeded";
    case Status::Failed:
        return "failed";
    case Status::BadRequest:
        return "bad_request";
    }
    panic("unreachable status");
}

namespace
{

Status
statusFromName(const std::string &name, bool &ok)
{
    ok = true;
    if (name == "ok")
        return Status::Ok;
    if (name == "shed")
        return Status::Shed;
    if (name == "deadline_exceeded")
        return Status::DeadlineExceeded;
    if (name == "failed")
        return Status::Failed;
    if (name == "bad_request")
        return Status::BadRequest;
    ok = false;
    return Status::BadRequest;
}

/** One `key value` line ('\n' terminator; value may hold spaces). */
void
putLine(std::string &out, const std::string &k, const std::string &v)
{
    out += k;
    out += ' ';
    out += v;
    out += '\n';
}

void
putLine(std::string &out, const std::string &k, uint64_t v)
{
    putLine(out, k, std::to_string(v));
}

/**
 * Split a payload into (key, value) pairs after checking the version
 * tag. @return false on a malformed line or wrong tag.
 */
bool
parseLines(const std::string &payload, const char *tag,
           std::map<std::string, std::string> &kv, std::string &error)
{
    std::istringstream in(payload);
    std::string line;
    if (!std::getline(in, line) || line != tag) {
        error = std::string("missing version tag ") + tag;
        return false;
    }
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto space = line.find(' ');
        if (space == std::string::npos || space == 0) {
            error = "malformed line: " + line;
            return false;
        }
        kv[line.substr(0, space)] = line.substr(space + 1);
    }
    return true;
}

bool
parseU64(const std::map<std::string, std::string> &kv,
         const std::string &k, uint64_t &out, std::string &error)
{
    auto it = kv.find(k);
    if (it == kv.end())
        return true; // optional field keeps its default
    // strtoull accepts a sign and wraps "-1" to 2^64-1, and skips
    // leading blanks: only a leading digit is an unsigned integer.
    // The whole value must parse, embedded NUL bytes included.
    const std::string &text = it->second;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        errno != 0 || end != text.c_str() + text.size()) {
        error = "field " + k + " is not an unsigned integer: " +
                it->second;
        return false;
    }
    out = v;
    return true;
}

void
getString(const std::map<std::string, std::string> &kv,
          const std::string &k, std::string &out)
{
    auto it = kv.find(k);
    if (it != kv.end())
        out = it->second;
}

/** Fixed-precision double, locale-independent (%.17g equivalent). */
std::string
numToString(double v)
{
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

} // namespace

std::string
encodeRequest(const Request &req)
{
    std::string out(requestTag);
    out += '\n';
    putLine(out, "type", req.type);
    putLine(out, "app", req.app);
    putLine(out, "machines", req.machines);
    putLine(out, "trace_blocks", req.traceBlocks);
    putLine(out, "deadline_ms", req.deadlineMs);
    if (!req.key.empty())
        putLine(out, "key", req.key);
    if (req.requestId != 0)
        putLine(out, "request_id", req.requestId);
    return out;
}

bool
decodeRequest(const std::string &payload, Request &req,
              std::string &error)
{
    std::map<std::string, std::string> kv;
    if (!parseLines(payload, requestTag, kv, error))
        return false;
    getString(kv, "type", req.type);
    getString(kv, "app", req.app);
    getString(kv, "machines", req.machines);
    getString(kv, "key", req.key);
    return parseU64(kv, "trace_blocks", req.traceBlocks, error) &&
           parseU64(kv, "deadline_ms", req.deadlineMs, error) &&
           parseU64(kv, "request_id", req.requestId, error);
}

std::string
encodeResponse(const Response &resp)
{
    std::string out(responseTag);
    out += '\n';
    putLine(out, "status", statusName(resp.status));
    if (!resp.error.empty()) {
        // The error travels on one line; flatten embedded newlines.
        std::string flat = resp.error;
        for (char &c : flat) {
            if (c == '\n')
                c = ' ';
        }
        putLine(out, "error", flat);
    }
    if (resp.retryAfterMs != 0)
        putLine(out, "retry_after_ms", resp.retryAfterMs);
    if (!resp.body.empty()) {
        // The body travels on one line, like the error.
        std::string flat = resp.body;
        for (char &c : flat) {
            if (c == '\n')
                c = ' ';
        }
        putLine(out, "body", flat);
    }
    for (const auto &[k, v] : resp.values)
        putLine(out, "v." + k, numToString(v));
    return out;
}

bool
decodeResponse(const std::string &payload, Response &resp,
               std::string &error)
{
    std::map<std::string, std::string> kv;
    if (!parseLines(payload, responseTag, kv, error))
        return false;
    auto it = kv.find("status");
    if (it == kv.end()) {
        error = "response has no status";
        return false;
    }
    bool known = false;
    resp.status = statusFromName(it->second, known);
    if (!known) {
        error = "unknown status: " + it->second;
        return false;
    }
    getString(kv, "error", resp.error);
    getString(kv, "body", resp.body);
    if (!parseU64(kv, "retry_after_ms", resp.retryAfterMs, error))
        return false;
    for (const auto &[k, v] : kv) {
        if (k.rfind("v.", 0) != 0)
            continue;
        errno = 0;
        char *end = nullptr;
        double d = std::strtod(v.c_str(), &end);
        if (errno != 0 || end == v.c_str() ||
            end != v.c_str() + v.size()) {
            error = "field " + k + " is not a number: " + v;
            return false;
        }
        resp.values[k.substr(2)] = d;
    }
    return true;
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > maxFrameBytes) {
        warn("refusing to write oversized frame (", payload.size(),
             " bytes)");
        return false;
    }
    auto len = static_cast<uint32_t>(payload.size());
    unsigned char prefix[4] = {
        static_cast<unsigned char>(len & 0xff),
        static_cast<unsigned char>((len >> 8) & 0xff),
        static_cast<unsigned char>((len >> 16) & 0xff),
        static_cast<unsigned char>((len >> 24) & 0xff),
    };
    std::string frame(reinterpret_cast<char *>(prefix), 4);
    frame += payload;
    size_t sent = 0;
    while (sent < frame.size()) {
        // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a
        // process-killing SIGPIPE.
        ssize_t n = ::send(fd, frame.data() + sent,
                           frame.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

namespace
{

/** Read exactly n bytes; false on EOF or error. */
bool
readExact(int fd, char *buf, size_t n)
{
    size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, buf + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0)
            return false; // orderly EOF
        got += static_cast<size_t>(r);
    }
    return true;
}

} // namespace

bool
readFrame(int fd, std::string &payload)
{
    unsigned char prefix[4];
    if (!readExact(fd, reinterpret_cast<char *>(prefix), 4))
        return false;
    uint32_t len = static_cast<uint32_t>(prefix[0]) |
                   (static_cast<uint32_t>(prefix[1]) << 8) |
                   (static_cast<uint32_t>(prefix[2]) << 16) |
                   (static_cast<uint32_t>(prefix[3]) << 24);
    if (len > maxFrameBytes) {
        warn("dropping oversized frame (", len, " bytes)");
        return false;
    }
    payload.assign(len, '\0');
    return len == 0 || readExact(fd, payload.data(), len);
}

} // namespace pico::server
