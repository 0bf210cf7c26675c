/**
 * @file
 * serve HTTP-layer tests: the strict parser over malformed and
 * hostile inputs (fuzz), the size caps (413 / header budget), the
 * per-connection deadlines (408), the router's 400/404/405/503
 * paths end-to-end against a live HttpServer, and concurrent
 * clients hammering one server — the concurrency surface a
 * `-DLAG_SANITIZE=thread` build audits (label: engine).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/pool.hh"
#include "obs/json_check.hh"
#include "serve/client.hh"
#include "serve/http.hh"
#include "serve/router.hh"
#include "serve/server.hh"

namespace lag::serve
{
namespace
{

/** Raw one-shot exchange: connect, send @p bytes, read to EOF.
 * Returns the raw response ("" on connect failure). */
std::string
rawExchange(std::uint16_t port, const std::string &bytes,
            int timeout_ms = 5000)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return {};
    }
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char chunk[2048];
    while (true) {
        pollfd entry{};
        entry.fd = fd;
        entry.events = POLLIN;
        if (::poll(&entry, 1, timeout_ms) <= 0)
            break;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

/** A tiny live server echoing {"ok":true} on GET /ping. */
struct TestServer
{
    engine::ThreadPool pool{2};
    HttpServer server;

    explicit TestServer(ServerConfig config = {})
        : server(std::move(config), makeRouter(), pool)
    {
        server.start();
    }

    ~TestServer() { server.stop(); }

    static Router
    makeRouter()
    {
        Router router;
        router.addExact("GET", "/ping", [](const HttpRequest &) {
            HttpResponse response;
            response.body = "{\"ok\":true}";
            return response;
        });
        router.addExact("POST", "/echo",
                        [](const HttpRequest &request) {
                            HttpResponse response;
                            response.body = "{\"bytes\":" +
                                std::to_string(request.body.size()) +
                                "}";
                            return response;
                        });
        return router;
    }

    ClientOptions
    client() const
    {
        ClientOptions options;
        options.port = server.port();
        return options;
    }
};

ParseStatus
parse(const std::string &data, HttpRequest &out,
      ParseLimits limits = {})
{
    return parseRequest(data, limits, out);
}

TEST(ServeHttp, ParsesSimpleGetWithQuery)
{
    HttpRequest request;
    ASSERT_EQ(parse("GET /v1/patterns?app=Gantt%20Project&limit=3&x "
                    "HTTP/1.1\r\nHost: h\r\n\r\n",
                    request),
              ParseStatus::Ok);
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.path, "/v1/patterns");
    ASSERT_NE(request.queryParam("app"), nullptr);
    EXPECT_EQ(*request.queryParam("app"), "Gantt Project");
    ASSERT_NE(request.queryParam("limit"), nullptr);
    EXPECT_EQ(*request.queryParam("limit"), "3");
    ASSERT_NE(request.queryParam("x"), nullptr);
    EXPECT_EQ(*request.queryParam("x"), "");
    EXPECT_EQ(request.queryParam("absent"), nullptr);
    EXPECT_EQ(request.header("host"), "h");
}

TEST(ServeHttp, ParsesPostBody)
{
    HttpRequest request;
    ASSERT_EQ(parse("POST /v1/refresh HTTP/1.1\r\n"
                    "Content-Length: 5\r\n\r\nhello",
                    request),
              ParseStatus::Ok);
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.body, "hello");
}

TEST(ServeHttp, IncompleteUntilTerminatorAndBodyArrive)
{
    HttpRequest request;
    EXPECT_EQ(parse("GET / HTTP/1.1\r\nHost: h\r\n", request),
              ParseStatus::Incomplete);
    EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel",
                    request),
              ParseStatus::Incomplete);
}

TEST(ServeHttp, MalformedRequestsAreBadRequest)
{
    // One table, one reason each: every entry must map to a
    // definite 400, never a crash or an Incomplete stall.
    const char *cases[] = {
        "\r\n\r\n",                                  // empty line
        "GET\r\n\r\n",                               // no target
        "GET /\r\n\r\n",                             // no version
        "GET / HTTP/2.0\r\n\r\n",                    // bad version
        "G@T / HTTP/1.1\r\n\r\n",                    // non-token method
        "GET relative HTTP/1.1\r\n\r\n",             // no leading /
        "GET /%zz HTTP/1.1\r\n\r\n",                 // bad escape
        "GET /%2 HTTP/1.1\r\n\r\n",                  // short escape
        "GET /%00 HTTP/1.1\r\n\r\n",                 // encoded NUL
        "GET /a?b=%G1 HTTP/1.1\r\n\r\n",             // bad query escape
        "GET / HTTP/1.1\r\nNoColon\r\n\r\n",         // header no colon
        "GET / HTTP/1.1\r\n: v\r\n\r\n",             // empty name
        "GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",     // space in name
        "GET / HTTP/1.1\r\nA: 1\r\n continued\r\n\r\n", // folding
        "GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",  // CL junk
        "GET / HTTP/1.1\r\nContent-Length: 5x\r\n\r\n", // CL suffix
        "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 1\r\n\r\nab", // extra byte
    };
    for (const char *data : cases) {
        HttpRequest request;
        EXPECT_EQ(parse(data, request), ParseStatus::BadRequest)
            << "input: " << data;
    }
}

TEST(ServeHttp, ConflictingContentLengthsAreBadRequest)
{
    // RFC 9110 §8.6: multiple differing Content-Length values make
    // the message framing ambiguous — request-smuggling territory —
    // and must be rejected, not first-or-last-value resolved.
    HttpRequest request;
    EXPECT_EQ(parse("POST /echo HTTP/1.1\r\n"
                    "Content-Length: 5\r\n"
                    "Content-Length: 6\r\n\r\nhello!",
                    request),
              ParseStatus::BadRequest);
    // Order must not matter: the larger value first smuggles the
    // same way.
    EXPECT_EQ(parse("POST /echo HTTP/1.1\r\n"
                    "Content-Length: 6\r\n"
                    "Content-Length: 5\r\n\r\nhello!",
                    request),
              ParseStatus::BadRequest);
}

TEST(ServeHttp, RepeatedIdenticalContentLengthIsAccepted)
{
    // ... but identical repeats are unambiguous and stay valid per
    // the same section.
    HttpRequest request;
    ASSERT_EQ(parse("POST /echo HTTP/1.1\r\n"
                    "Content-Length: 5\r\n"
                    "Content-Length: 5\r\n\r\nhello",
                    request),
              ParseStatus::Ok);
    EXPECT_EQ(request.body, "hello");
}

TEST(ServeHttp, EncodedNulInQueryIsBadRequest)
{
    // %00 was already rejected in the path; the decoded query key
    // and value must refuse embedded NULs the same way, or handlers
    // compare C-string-truncated parameter names.
    HttpRequest request;
    EXPECT_EQ(parse("GET /a?%00key=1 HTTP/1.1\r\n\r\n", request),
              ParseStatus::BadRequest)
        << "NUL in decoded query key";
    EXPECT_EQ(parse("GET /a?key=%00 HTTP/1.1\r\n\r\n", request),
              ParseStatus::BadRequest)
        << "NUL in decoded query value";
    EXPECT_EQ(parse("GET /a?k%001=v HTTP/1.1\r\n\r\n", request),
              ParseStatus::BadRequest)
        << "NUL mid-key";
}

TEST(ServeHttp, HeaderBudgetIsFatalEvenWithoutTerminator)
{
    ParseLimits limits;
    limits.maxHeaderBytes = 64;
    HttpRequest request;
    // Over budget with no terminator: waiting cannot help.
    const std::string dribble =
        "GET / HTTP/1.1\r\nX: " + std::string(100, 'a');
    EXPECT_EQ(parse(dribble, request, limits),
              ParseStatus::BadRequest);
    // Over budget with a terminator: same verdict.
    const std::string over = "GET / HTTP/1.1\r\nX: " +
                             std::string(100, 'a') + "\r\n\r\n";
    EXPECT_EQ(parse(over, request, limits),
              ParseStatus::BadRequest);
}

TEST(ServeHttp, HeaderCountCapped)
{
    ParseLimits limits;
    limits.maxHeaderCount = 4;
    std::string data = "GET / HTTP/1.1\r\n";
    // Appended piecewise: `"H" + std::to_string(i)` trips a false
    // -Wrestrict in GCC 12 at -O3.
    for (int i = 0; i < 6; ++i)
        data.append("H").append(std::to_string(i)).append(": v\r\n");
    data += "\r\n";
    HttpRequest request;
    EXPECT_EQ(parse(data, request, limits),
              ParseStatus::BadRequest);
}

TEST(ServeHttp, OversizedBodyIsTooLarge)
{
    ParseLimits limits;
    limits.maxBodyBytes = 8;
    HttpRequest request;
    // The verdict comes from the declared length alone — no body
    // bytes need to arrive before the 413.
    EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n",
                    request, limits),
              ParseStatus::TooLarge);
}

TEST(ServeHttp, FuzzedGarbageNeverCrashesTheParser)
{
    // Deterministic garbage, three flavors: pure noise, noise with
    // HTTP-ish framing bytes, and truncations of a valid request.
    std::mt19937 rng(0x1a6f00dU);
    const std::string valid =
        "POST /v1/episodes?app=X&pattern=0abc HTTP/1.1\r\n"
        "Host: h\r\nContent-Length: 4\r\n\r\nbody";
    for (int round = 0; round < 2000; ++round) {
        std::string data;
        const int flavor = round % 3;
        const std::size_t len = rng() % 200;
        if (flavor == 0) {
            for (std::size_t i = 0; i < len; ++i)
                data.push_back(static_cast<char>(rng() & 0xff));
        } else if (flavor == 1) {
            const char framing[] = {'\r', '\n', ':', ' ', '%',
                                    '?',  '&',  '=', '/'};
            for (std::size_t i = 0; i < len; ++i) {
                data.push_back(
                    (rng() & 1) != 0
                        ? framing[rng() % sizeof(framing)]
                        : static_cast<char>('A' + (rng() % 26)));
            }
        } else {
            data = valid.substr(0, rng() % valid.size());
        }
        HttpRequest request;
        // Any verdict is fine; crashing or throwing is not.
        (void)parseRequest(data, ParseLimits{}, request);
    }
}

TEST(ServeHttp, ResponsesSerializeStrictJsonErrors)
{
    const HttpResponse error = errorResponse(404, "no \"thing\"");
    EXPECT_TRUE(obs::checkJson(error.body).ok) << error.body;
    const std::string wire = serializeResponseHead(error);
    EXPECT_EQ(wire.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
    // The head ends at the blank line; the body is sent after it.
    EXPECT_EQ(wire.find("\r\n\r\n"), wire.size() - 4);
    EXPECT_EQ(wire.find(error.body), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Content-Length: " +
                        std::to_string(error.body.size())),
              std::string::npos);
}

TEST(ServeHttp, EndToEndStatusPaths)
{
    ServerConfig config;
    config.limits.maxBodyBytes = 16;
    TestServer ts(config);
    const ClientOptions client = ts.client();

    const ClientResult ok = httpRequest(client, "GET", "/ping");
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.body, "{\"ok\":true}");

    const ClientResult missing =
        httpRequest(client, "GET", "/nope");
    ASSERT_TRUE(missing.ok) << missing.error;
    EXPECT_EQ(missing.status, 404);
    EXPECT_TRUE(obs::checkJson(missing.body).ok) << missing.body;

    const ClientResult wrong_method =
        httpRequest(client, "POST", "/ping");
    ASSERT_TRUE(wrong_method.ok) << wrong_method.error;
    EXPECT_EQ(wrong_method.status, 405);
    EXPECT_TRUE(obs::checkJson(wrong_method.body).ok);

    const ClientResult too_large = httpRequest(
        client, "POST", "/echo", std::string(100, 'x'));
    ASSERT_TRUE(too_large.ok) << too_large.error;
    EXPECT_EQ(too_large.status, 413);

    const std::string malformed =
        rawExchange(ts.server.port(), "GARBAGE\r\n\r\n");
    EXPECT_NE(malformed.find("HTTP/1.1 400 "), std::string::npos)
        << malformed;
}

TEST(ServeHttp, ReadDeadlineAnswers408)
{
    ServerConfig config;
    config.readTimeoutMs = 150;
    TestServer ts(config);
    // Connect, send half a request, then stall past the deadline.
    const std::string response = rawExchange(
        ts.server.port(), "GET /ping HTTP/1.1\r\n", 5000);
    EXPECT_NE(response.find("HTTP/1.1 408 "), std::string::npos)
        << response;
}

TEST(ServeHttp, AdmissionGateAnswers503)
{
    ServerConfig config;
    config.maxConnections = 0; // every arrival over the cap
    TestServer ts(config);
    const ClientResult rejected =
        httpRequest(ts.client(), "GET", "/ping");
    ASSERT_TRUE(rejected.ok) << rejected.error;
    EXPECT_EQ(rejected.status, 503);
    EXPECT_TRUE(obs::checkJson(rejected.body).ok);
}

TEST(ServeHttp, ConcurrentClientsAllSucceed)
{
    TestServer ts;
    const ClientOptions client = ts.client();
    constexpr int kThreads = 8;
    constexpr int kRequestsPerThread = 16;

    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kRequestsPerThread; ++i) {
                const ClientResult result =
                    httpRequest(client, "GET", "/ping");
                if (!result.ok || result.status != 200 ||
                    result.body != "{\"ok\":true}")
                    ++failures[static_cast<std::size_t>(t)];
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0)
            << "thread " << t;
}

TEST(ServeHttp, StopDrainsAndStaysIdempotent)
{
    auto ts = std::make_unique<TestServer>();
    const ClientOptions client = ts->client();
    const ClientResult before =
        httpRequest(client, "GET", "/ping");
    ASSERT_TRUE(before.ok);
    ts->server.stop();
    ts->server.stop(); // second stop is a no-op
    const ClientResult after = httpRequest(client, "GET", "/ping");
    EXPECT_FALSE(after.ok); // nobody listening any more
}

} // namespace
} // namespace lag::serve
