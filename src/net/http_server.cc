#include "net/http_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.hh"

namespace astrea
{
namespace net
{

namespace
{

uint64_t
nowMillis()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

char
asciiLower(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string
trimOws(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

bool
sendAll(int fd, const char *data, size_t len)
{
    size_t sent = 0;
    while (sent < len) {
        ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

std::string
httpStatusText(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 408:
        return "Request Timeout";
      case 431:
        return "Request Header Fields Too Large";
      case 500:
        return "Internal Server Error";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

std::string
queryParam(const std::string &query, const std::string &key)
{
    size_t pos = 0;
    while (pos < query.size()) {
        size_t end = query.find('&', pos);
        if (end == std::string::npos)
            end = query.size();
        const size_t eq = query.find('=', pos);
        if (eq != std::string::npos && eq < end &&
            query.compare(pos, eq - pos, key) == 0) {
            return query.substr(eq + 1, end - eq - 1);
        }
        pos = end + 1;
    }
    return "";
}

std::string
HttpRequest::header(const std::string &name) const
{
    std::string want;
    want.reserve(name.size());
    for (char c : name)
        want.push_back(asciiLower(c));
    for (const auto &[k, v] : headers) {
        if (k == want)
            return v;
    }
    return "";
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::handle(const std::string &path, HttpHandler handler)
{
    std::lock_guard<std::mutex> lock(handlersMu_);
    handlers_[path] = std::move(handler);
}

void
HttpServer::handlePrefix(const std::string &prefix,
                         HttpHandler handler)
{
    std::lock_guard<std::mutex> lock(handlersMu_);
    prefixHandlers_[prefix] = std::move(handler);
}

bool
HttpServer::start(const std::string &bind_addr, uint16_t port,
                  std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg + ": " + std::strerror(errno);
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return false;
    };

    if (running_)
        return fail("server already running");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");

    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1)
        return fail("bad bind address '" + bind_addr + "'");

    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind " + bind_addr + ":" + std::to_string(port));
    if (::listen(listenFd_, 16) != 0)
        return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);

    running_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!running_ && !acceptor_.joinable())
        return;
    running_ = false;
    // Unblock accept() (shutdown makes the blocked call return on
    // Linux) and join the acceptor before close releases the port:
    // closing first would race its read of listenFd_, and accept()
    // could land on a descriptor number already reused elsewhere.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
HttpServer::acceptLoop()
{
    while (running_) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;  // Socket closed by stop(), or a fatal error.
        }
        timeval tv{};
        tv.tv_sec = 5;  // A stalled reader may not wedge the acceptor.
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        serveConnection(fd);
        ::close(fd);
    }
}

void
HttpServer::serveConnection(int fd)
{
    // Bounded keep-alive: serve up to maxRequestsPerConnection
    // HTTP/1.1 requests on this connection, carrying pipelined bytes
    // between iterations. Each request re-arms the whole-head
    // deadline (the slow-loris defense is per request, not amortized
    // across the connection).
    std::string carry;
    const unsigned max_requests =
        std::max(1u, limits_.maxRequestsPerConnection);
    for (unsigned served = 0; served < max_requests; served++) {
        const bool keep =
            serveOneRequest(fd, carry, served, max_requests);
        if (!keep)
            return;
    }
}

bool
HttpServer::serveOneRequest(int fd, std::string &carry,
                            unsigned served, unsigned max_requests)
{
    // Read the whole head against one fixed deadline. A per-recv
    // timeout alone lets a slow-loris client trickle a byte every few
    // seconds and hold this (serial) server forever; here each recv
    // gets only the budget that remains. On a kept-alive connection
    // the follow-up budget is the (shorter) idle allowance.
    const uint64_t budget_ms = served == 0
                                   ? limits_.headDeadlineMillis
                                   : limits_.keepAliveIdleMillis;
    const uint64_t deadline = nowMillis() + budget_ms;
    bool timed_out = false;
    std::string head = std::move(carry);
    carry.clear();
    char buf[4096];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.size() <= limits_.maxHeadBytes) {
        const uint64_t now = nowMillis();
        if (now >= deadline) {
            timed_out = true;
            break;
        }
        const uint64_t remain_ms = deadline - now;
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(remain_ms / 1000);
        tv.tv_usec =
            static_cast<suseconds_t>((remain_ms % 1000) * 1000);
        if (tv.tv_sec == 0 && tv.tv_usec == 0)
            tv.tv_usec = 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n == 0)
            return false;  // Closed before a full head.
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                timed_out = true;
                break;
            }
            return false;  // Reset or another hard error.
        }
        head.append(buf, static_cast<size_t>(n));
    }

    HttpResponse resp;
    HttpRequest req;
    bool http11 = false;
    const size_t head_end = head.find("\r\n\r\n");
    const size_t line_end = head.find("\r\n");

    if (timed_out && head_end == std::string::npos) {
        // An idle keeper timing out before sending anything is the
        // normal end of a kept-alive connection, not an error.
        if (served > 0 && head.empty())
            return false;
        resp.status = 408;
        resp.body = "request head not received in time\n";
    } else if (head_end == std::string::npos ||
               head.size() > limits_.maxHeadBytes + 4) {
        // No terminator within the size cap: oversized head.
        resp.status = 431;
        resp.body = "request head too large\n";
    } else if (line_end > limits_.maxRequestLineBytes) {
        resp.status = 431;
        resp.body = "request line too long\n";
    } else {
        std::string line = head.substr(0, line_end);
        size_t sp1 = line.find(' ');
        size_t sp2 = line.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos) {
            resp.status = 400;
            resp.body = "bad request\n";
        } else {
            req.method = line.substr(0, sp1);
            http11 = line.compare(sp2 + 1, std::string::npos,
                                  "HTTP/1.1") == 0;
            std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
            size_t q = target.find('?');
            req.path = target.substr(0, q);
            if (q != std::string::npos)
                req.query = target.substr(q + 1);

            // Header lines between the request line and the blank
            // line; names lowercased, OWS trimmed, bad lines skipped.
            size_t pos = line_end + 2;
            while (pos < head_end) {
                size_t eol = head.find("\r\n", pos);
                if (eol == std::string::npos || eol > head_end)
                    eol = head_end;
                const std::string hline =
                    head.substr(pos, eol - pos);
                pos = eol + 2;
                const size_t colon = hline.find(':');
                if (colon == std::string::npos || colon == 0)
                    continue;
                std::string key = hline.substr(0, colon);
                for (char &c : key)
                    c = asciiLower(c);
                req.headers.emplace_back(
                    std::move(key), trimOws(hline.substr(colon + 1)));
            }

            if (req.method != "GET" && req.method != "HEAD") {
                resp.status = 405;
                resp.body = "method not allowed\n";
            } else {
                HttpHandler handler;
                {
                    std::lock_guard<std::mutex> lock(handlersMu_);
                    auto it = handlers_.find(req.path);
                    if (it != handlers_.end()) {
                        handler = it->second;
                    } else {
                        // Longest matching prefix (map order makes the
                        // last match the longest among matches).
                        for (const auto &[prefix, h] : prefixHandlers_) {
                            if (req.path.compare(0, prefix.size(),
                                                 prefix) == 0)
                                handler = h;
                        }
                    }
                }
                if (!handler) {
                    resp.status = 404;
                    resp.body = "not found\n";
                } else {
                    resp = handler(req);
                }
            }
        }
    }
    requests_.fetch_add(1, std::memory_order_relaxed);

    // Keep the connection only for a cleanly-parsed HTTP/1.1 request
    // that did not ask to close, has no body to desynchronize the
    // stream, and leaves room under the per-connection request bound.
    const bool keep = http11 && resp.status < 400 &&
                      served + 1 < max_requests &&
                      req.header("connection") != "close" &&
                      req.header("content-length").empty() &&
                      head_end != std::string::npos;

    std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                      httpStatusText(resp.status) + "\r\n";
    out += "Content-Type: " + resp.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) +
           "\r\n";
    out += keep ? "Connection: keep-alive\r\n\r\n"
                : "Connection: close\r\n\r\n";
    if (req.method != "HEAD")
        out += resp.body;
    if (!sendAll(fd, out.data(), out.size()))
        return false;

    if (keep && head_end != std::string::npos)
        carry = head.substr(head_end + 4);  // Pipelined bytes.
    return keep;
}

} // namespace net
} // namespace astrea
