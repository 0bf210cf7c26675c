/**
 * @file
 * Minimal, strict HTTP/1.1 message layer for `lagd`.
 *
 * Self-contained on purpose: the container has no HTTP library, and
 * the server needs exactly one message shape — a bounded request
 * with an optional Content-Length body, answered with one response
 * and `Connection: close`. The parser is strict and total: any
 * input either parses, is Incomplete (read more bytes), or maps to
 * a definite 4xx — malformed bytes can never crash the daemon or
 * smuggle an unbounded allocation (request-line, header block and
 * body are all size-capped before buffering).
 *
 * What is deliberately NOT here: chunked transfer encoding
 * (rejected with 400), multiple requests per connection (the
 * response always closes), and TLS. lag_query and the tests speak
 * exactly this subset.
 */

#ifndef LAG_SERVE_HTTP_HH
#define LAG_SERVE_HTTP_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lag::serve
{

/** One parsed request. */
struct HttpRequest
{
    std::string method;  ///< e.g. "GET" (token, upper-case only)
    std::string target;  ///< raw request target (path?query)
    std::string path;    ///< percent-decoded path component
    std::string body;    ///< Content-Length bytes, possibly empty

    /** Decoded query parameters in request order. */
    std::vector<std::pair<std::string, std::string>> query;

    /** Headers in request order, names lower-cased. */
    std::vector<std::pair<std::string, std::string>> headers;

    /** First value of query key @p key, nullptr when absent. */
    const std::string *queryParam(std::string_view key) const;

    /** First value of header @p name (lower-case), "" when absent. */
    std::string_view header(std::string_view name) const;
};

/** Size caps applied while parsing. */
struct ParseLimits
{
    std::size_t maxHeaderBytes = 8192; ///< request line + headers
    std::size_t maxHeaderCount = 64;
    std::size_t maxBodyBytes = 1 << 20;
};

/** Outcome of one parse attempt over the bytes read so far. */
enum class ParseStatus
{
    Ok,         ///< request complete and valid
    Incomplete, ///< syntactically fine so far; need more bytes
    BadRequest, ///< malformed — answer 400 and close
    TooLarge,   ///< body over limits.maxBodyBytes — answer 413
};

/**
 * Parse @p data (everything received on the connection so far)
 * into @p out. Headers over maxHeaderBytes are BadRequest even
 * before the terminator arrives, so a byte-dribbling client cannot
 * buffer unbounded garbage. Bytes after the declared body are
 * BadRequest (no pipelining).
 */
ParseStatus parseRequest(std::string_view data,
                         const ParseLimits &limits,
                         HttpRequest &out);

/** One response; serialized with Content-Length and
 * `Connection: close`. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;

    /** Extra response headers (e.g. X-Lag-Trace-Id), emitted in
     * order after the built-in ones. */
    std::vector<std::pair<std::string, std::string>> headers;
};

/** Reason phrase for the status codes this server emits. */
std::string_view statusText(int status);

/** Wire form of @p response's head: status line and headers, up to
 * and including the blank line. The body follows it on the wire
 * unchanged, so the server sends both in one gather write without
 * copying the body. */
std::string serializeResponseHead(const HttpResponse &response);

/** A strict-JSON {"error":...} body with the given status. */
HttpResponse errorResponse(int status, std::string_view message);

/**
 * Percent-decode @p s (no '+'-to-space). Returns false on a
 * truncated or non-hex escape — the caller's 400.
 */
bool percentDecode(std::string_view s, std::string &out);

} // namespace lag::serve

#endif // LAG_SERVE_HTTP_HH
