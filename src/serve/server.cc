#include "server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/logging.hh"
#include "util/thread_name.hh"

namespace lag::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Latency bucket bounds (µs), shared by the aggregate histogram
 * and the per-route ones — re-registration checks bounds match. */
std::vector<std::int64_t>
latencyBoundsUs()
{
    return {100,   250,   500,    1000,   2500,  5000,
            10000, 25000, 50000, 100000, 250000, 1000000};
}

/** Server instruments; looked up once. */
struct ServeMetrics
{
    obs::Counter &requests =
        obs::metrics().counter("serve.requests");
    obs::Counter &rejected =
        obs::metrics().counter("serve.rejected");
    obs::Counter &timeouts =
        obs::metrics().counter("serve.timeouts");
    obs::Histogram &latencyUs = obs::metrics().histogram(
        "serve.request.latency_us", latencyBoundsUs());
};

ServeMetrics &
serveMetrics()
{
    static ServeMetrics metrics;
    return metrics;
}

int
remainingMs(Clock::time_point deadline)
{
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count();
    return left > 0 ? static_cast<int>(left) : 0;
}

/** Wait for @p events on @p fd until @p deadline; false on
 * timeout or poll error. */
bool
waitFd(int fd, short events, Clock::time_point deadline)
{
    while (true) {
        pollfd entry{};
        entry.fd = fd;
        entry.events = events;
        const int left = remainingMs(deadline);
        if (left <= 0)
            return false;
        const int ready = ::poll(&entry, 1, left);
        if (ready > 0)
            return true;
        if (ready == 0)
            return false;
        if (errno != EINTR)
            return false;
    }
}

} // namespace

HttpServer::HttpServer(ServerConfig config, Router router,
                       engine::ThreadPool &pool)
    : config_(std::move(config)), router_(std::move(router)),
      pool_(pool)
{
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start()
{
    lag_assert(!running_.load(), "HttpServer started twice");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("serve: socket failed: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bindAddress.c_str(),
                    &addr.sin_addr) != 1)
        fatal("serve: bad bind address: ", config_.bindAddress);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("serve: bind ", config_.bindAddress, ":",
              config_.port, " failed: ", std::strerror(errno));
    if (::listen(listenFd_, 64) < 0)
        fatal("serve: listen failed: ", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) < 0)
        fatal("serve: getsockname failed: ",
              std::strerror(errno));
    port_ = ntohs(bound.sin_port);

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        fatal("serve: pipe failed: ", std::strerror(errno));
    wakeRead_ = pipe_fds[0];
    wakeWrite_ = pipe_fds[1];

    running_.store(true);
    stopping_.store(false);
    acceptThread_ = std::thread([this] {
        setThreadName("lagd-accept");
        acceptLoop();
    });
}

void
HttpServer::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);
    // Wake the accept poll; a failed write still drains via the
    // poll timeout below, it is just slower.
    const char byte = 's';
    [[maybe_unused]] const ssize_t written =
        ::write(wakeWrite_, &byte, 1);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    ::close(wakeRead_);
    ::close(wakeWrite_);
    wakeRead_ = wakeWrite_ = -1;

    // Drain: every accepted connection finishes its response.
    MutexLock lock(activeMutex_);
    while (active_ != 0)
        drainCv_.wait(lock);
}

void
HttpServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd fds[2];
        fds[0].fd = listenFd_;
        fds[0].events = POLLIN;
        fds[0].revents = 0;
        fds[1].fd = wakeRead_;
        fds[1].events = POLLIN;
        fds[1].revents = 0;
        const int ready = ::poll(fds, 2, 1000);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: accept poll failed: ",
                 std::strerror(errno));
            return;
        }
        if (ready == 0 || (fds[0].revents & POLLIN) == 0)
            continue;

        const int conn =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (conn < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK || errno == ECONNABORTED)
                continue;
            warn("serve: accept failed: ", std::strerror(errno));
            continue;
        }

        // Admission gate: past the cap the connection gets an
        // immediate 503 on the accept thread — a cheap, bounded
        // write — rather than a slot in the pool queue.
        bool admitted = false;
        {
            MutexLock lock(activeMutex_);
            if (active_ < config_.maxConnections) {
                ++active_;
                admitted = true;
            }
        }
        if (!admitted) {
            serveMetrics().rejected.add(1);
            writeResponse(conn,
                          errorResponse(503, "server busy"));
            // The client is usually still sending its request;
            // close() with unread bytes in the receive buffer
            // turns into a RST that can discard the in-flight
            // 503. Half-close our side and drain (briefly,
            // bounded) until the client sees the response and
            // closes.
            ::shutdown(conn, SHUT_WR);
            char sink[256];
            pollfd drainFd{conn, POLLIN, 0};
            for (int spin = 0; spin < 32; ++spin) {
                if (::poll(&drainFd, 1, 50) <= 0 ||
                    ::read(conn, sink, sizeof sink) <= 0)
                    break;
            }
            ::close(conn);
            continue;
        }

        // The request's trace identity is minted here, at accept
        // time, and installed on the worker that serves it; every
        // pool hop the handler causes re-installs it via
        // ThreadPool::submit's capture.
        const obs::TraceContext ctx = obs::mintTraceContext();
        pool_.submit([this, conn, ctx] {
            obs::TraceContextScope scope(ctx);
            handleConnection(conn, ctx);
            // Notify while still holding the lock: stop() may
            // return (and the server be destroyed) the moment it
            // can observe active_ == 0, so an unlocked notify
            // would race the condition variable's destruction.
            MutexLock lock(activeMutex_);
            --active_;
            if (active_ == 0)
                drainCv_.notify_all();
        });
    }
}

bool
HttpServer::readRequest(int fd, HttpRequest &request,
                        HttpResponse &error_response)
{
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(config_.readTimeoutMs);
    std::string buffer;
    char chunk[4096];
    while (true) {
        const ParseStatus status =
            parseRequest(buffer, config_.limits, request);
        if (status == ParseStatus::Ok)
            return true;
        if (status == ParseStatus::BadRequest) {
            error_response =
                errorResponse(400, "malformed request");
            return false;
        }
        if (status == ParseStatus::TooLarge) {
            error_response =
                errorResponse(413, "request body too large");
            return false;
        }

        if (!waitFd(fd, POLLIN, deadline)) {
            serveMetrics().timeouts.add(1);
            error_response =
                errorResponse(408, "request read timed out");
            return false;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            // Peer closed mid-request; nobody is left to answer.
            error_response = HttpResponse{};
            error_response.status = 0;
            return false;
        }
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            continue;
        error_response = HttpResponse{};
        error_response.status = 0;
        return false;
    }
}

void
HttpServer::writeResponse(int fd, const HttpResponse &response)
{
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(config_.writeTimeoutMs);
    // Head and body leave in one gather write: the body is sent
    // from the response itself, never copied behind the head.
    const std::string head = serializeResponseHead(response);
    const std::string_view parts[] = {head, response.body};
    std::size_t sent = 0;
    const std::size_t total = head.size() + response.body.size();
    while (sent < total) {
        iovec iov[2];
        std::size_t count = 0;
        std::size_t skip = sent;
        for (const std::string_view part : parts) {
            if (skip >= part.size()) {
                skip -= part.size();
                continue;
            }
            iov[count].iov_base = const_cast<char *>(part.data() + skip);
            iov[count].iov_len = part.size() - skip;
            ++count;
            skip = 0;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = count;
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!waitFd(fd, POLLOUT, deadline)) {
                serveMetrics().timeouts.add(1);
                return; // write budget exhausted; drop the rest
            }
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return; // peer gone; nothing sensible left to do
    }
}

void
HttpServer::handleConnection(int fd, const obs::TraceContext &ctx)
{
    const std::int64_t start_ns = processElapsedNs();

    HttpRequest request;
    HttpResponse response;
    bool have_request = false;
    {
        // Scoped so the span closes (and lands in the buffers)
        // before the slow-request path renders the span tree.
        LAG_SPAN("serve.request");
        have_request = readRequest(fd, request, response);
        if (have_request) {
            try {
                response = router_.dispatch(request);
            } catch (const std::exception &error) {
                warn("serve: handler failed for ", request.method,
                     " ", request.target, ": ", error.what());
                response =
                    errorResponse(500, "internal server error");
            }
        }
        if (response.status != 0) {
            // Echo the trace id so clients (and the CI smoke) can
            // correlate a response with /debugz/requests and the
            // Chrome-trace export.
            response.headers.emplace_back("X-Lag-Trace-Id",
                                          obs::traceIdHex(ctx));
            writeResponse(fd, response);
        }
        ::close(fd);
    }

    const std::int64_t dur_us =
        (processElapsedNs() - start_ns) / 1000;
    serveMetrics().requests.add(1);
    serveMetrics().latencyUs.record(dur_us);
    if (have_request) {
        obs::metrics()
            .histogram("serve.route.latency_us", latencyBoundsUs(),
                       "route", router_.routeLabel(request))
            .record(dur_us);
    }

    const bool slow =
        config_.slowRequestMs > 0 &&
        dur_us >= static_cast<std::int64_t>(config_.slowRequestMs) *
                      1000;
    if (obs::FlightRecorder *rec = obs::armedFlightRecorder()) {
        obs::RequestSummary summary;
        summary.method = have_request ? request.method : "?";
        summary.target = have_request ? request.target : "?";
        summary.trace = ctx;
        summary.startNs = start_ns;
        summary.durUs = dur_us;
        summary.status = response.status;
        summary.slow = slow;
        rec->recordRequest(summary);
        if (slow) {
            rec->recordEvent(
                "slow-request",
                have_request
                    ? obs::internedName(router_.routeLabel(request))
                    : "?");
        }
    }
    if (slow) {
        warn("serve: slow request ",
             have_request ? request.method : "?", " ",
             have_request ? request.target : "?", " took ",
             dur_us / 1000, " ms (trace ", obs::traceIdHex(ctx),
             ")\n", obs::spanTreeText(ctx));
    }
}

} // namespace lag::serve
