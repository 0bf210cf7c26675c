#include "http.hh"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/json.hh"
#include "util/logging.hh"

namespace lag::serve
{

namespace
{

constexpr std::string_view kCrlf = "\r\n";

bool
isTokenChar(char c)
{
    // RFC 9110 token characters; enough to validate methods and
    // header names strictly.
    if (std::isalnum(static_cast<unsigned char>(c)) != 0)
        return true;
    constexpr std::string_view extra = "!#$%&'*+-.^_`|~";
    return extra.find(c) != std::string_view::npos;
}

bool
isToken(std::string_view s)
{
    return !s.empty() &&
           std::all_of(s.begin(), s.end(), isTokenChar);
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

std::string_view
trimOws(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

std::string
lowered(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** Split the request target into decoded path + query pairs.
 * Returns false on any malformed escape. */
bool
parseTarget(std::string_view target, HttpRequest &out)
{
    const std::size_t question = target.find('?');
    const std::string_view raw_path = target.substr(0, question);
    if (raw_path.empty() || raw_path.front() != '/')
        return false;
    if (!percentDecode(raw_path, out.path))
        return false;
    // An encoded NUL can never be a valid route and would make the
    // path hostile to C string handling downstream.
    if (out.path.find('\0') != std::string::npos)
        return false;

    if (question == std::string_view::npos)
        return true;
    std::string_view rest = target.substr(question + 1);
    while (!rest.empty()) {
        const std::size_t amp = rest.find('&');
        const std::string_view pair = rest.substr(0, amp);
        rest = amp == std::string_view::npos
                   ? std::string_view{}
                   : rest.substr(amp + 1);
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        std::string key;
        std::string value;
        if (!percentDecode(pair.substr(0, eq), key))
            return false;
        if (eq != std::string_view::npos &&
            !percentDecode(pair.substr(eq + 1), value))
            return false;
        // Same NUL rejection as the path above: a %00 smuggled into
        // a query key or value would otherwise flow into app-name
        // lookups and log lines.
        if (key.find('\0') != std::string::npos ||
            value.find('\0') != std::string::npos)
            return false;
        out.query.emplace_back(std::move(key), std::move(value));
    }
    return true;
}

} // namespace

const std::string *
HttpRequest::queryParam(std::string_view key) const
{
    for (const auto &[k, v] : query) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string_view
HttpRequest::header(std::string_view name) const
{
    for (const auto &[k, v] : headers) {
        if (k == name)
            return v;
    }
    return {};
}

bool
percentDecode(std::string_view s, std::string &out)
{
    out.clear();
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out.push_back(s[i]);
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        const int hi = hexDigit(s[i + 1]);
        const int lo = hexDigit(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
    }
    return true;
}

ParseStatus
parseRequest(std::string_view data, const ParseLimits &limits,
             HttpRequest &out)
{
    out = HttpRequest{};

    const std::size_t header_end = data.find("\r\n\r\n");
    if (header_end == std::string_view::npos) {
        // Even without the terminator, an over-budget header block
        // is already fatal: waiting for more bytes cannot fix it.
        return data.size() > limits.maxHeaderBytes
                   ? ParseStatus::BadRequest
                   : ParseStatus::Incomplete;
    }
    if (header_end + 4 > limits.maxHeaderBytes)
        return ParseStatus::BadRequest;

    std::string_view head = data.substr(0, header_end);

    // Request line: METHOD SP target SP HTTP/1.x
    const std::size_t line_end = head.find(kCrlf);
    const std::string_view request_line =
        head.substr(0, line_end);
    head = line_end == std::string_view::npos
               ? std::string_view{}
               : head.substr(line_end + 2);

    const std::size_t sp1 = request_line.find(' ');
    if (sp1 == std::string_view::npos)
        return ParseStatus::BadRequest;
    const std::size_t sp2 = request_line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos)
        return ParseStatus::BadRequest;
    const std::string_view method = request_line.substr(0, sp1);
    const std::string_view target =
        request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string_view version = request_line.substr(sp2 + 1);
    if (!isToken(method) || target.empty())
        return ParseStatus::BadRequest;
    if (version != "HTTP/1.1" && version != "HTTP/1.0")
        return ParseStatus::BadRequest;
    out.method = std::string(method);
    out.target = std::string(target);
    if (!parseTarget(target, out))
        return ParseStatus::BadRequest;

    // Header fields.
    while (!head.empty()) {
        const std::size_t eol = head.find(kCrlf);
        const std::string_view line = head.substr(0, eol);
        head = eol == std::string_view::npos
                   ? std::string_view{}
                   : head.substr(eol + 2);
        if (line.empty())
            return ParseStatus::BadRequest; // bare CRLF mid-headers
        if (line.front() == ' ' || line.front() == '\t')
            return ParseStatus::BadRequest; // obsolete line folding
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0)
            return ParseStatus::BadRequest;
        const std::string_view name = line.substr(0, colon);
        if (!isToken(name))
            return ParseStatus::BadRequest;
        if (out.headers.size() >= limits.maxHeaderCount)
            return ParseStatus::BadRequest;
        out.headers.emplace_back(
            lowered(name),
            std::string(trimOws(line.substr(colon + 1))));
    }

    // Body framing: Content-Length only; chunked is out of scope
    // and refusing it beats silently mis-framing.
    if (!out.header("transfer-encoding").empty())
        return ParseStatus::BadRequest;
    std::size_t content_length = 0;
    // RFC 9110 §8.6: multiple Content-Length fields are only
    // acceptable when their values are identical; differing values
    // signal request smuggling and must be rejected. header()
    // returns the first match, so scan all of them here.
    std::string_view length_header;
    for (const auto &[name, value] : out.headers) {
        if (name != "content-length")
            continue;
        if (!length_header.empty() && value != length_header)
            return ParseStatus::BadRequest;
        length_header = value;
    }
    if (!length_header.empty()) {
        const auto *first = length_header.data();
        const auto *last = first + length_header.size();
        const auto result =
            std::from_chars(first, last, content_length);
        if (result.ec != std::errc{} || result.ptr != last)
            return ParseStatus::BadRequest;
    }
    if (content_length > limits.maxBodyBytes)
        return ParseStatus::TooLarge;

    const std::string_view after = data.substr(header_end + 4);
    if (after.size() < content_length)
        return ParseStatus::Incomplete;
    if (after.size() > content_length)
        return ParseStatus::BadRequest; // no pipelining
    out.body = std::string(after.substr(0, content_length));
    return ParseStatus::Ok;
}

std::string_view
statusText(int status)
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
    case 413:
        return "Content Too Large";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    default:
        return "Unknown";
    }
}

std::string
serializeResponseHead(const HttpResponse &response)
{
    std::string out;
    out.reserve(256);
    out += "HTTP/1.1 ";
    out += std::to_string(response.status);
    out += ' ';
    out += statusText(response.status);
    out += kCrlf;
    out += "Content-Type: ";
    out += response.contentType;
    out += kCrlf;
    out += "Content-Length: ";
    out += std::to_string(response.body.size());
    out += kCrlf;
    for (const auto &[name, value] : response.headers) {
        out += name;
        out += ": ";
        out += value;
        out += kCrlf;
    }
    out += "Connection: close";
    out += kCrlf;
    out += kCrlf;
    return out;
}

HttpResponse
errorResponse(int status, std::string_view message)
{
    HttpResponse response;
    response.status = status;
    response.body = "{\"error\":";
    appendJsonString(response.body, message);
    response.body += ",\"status\":";
    appendJsonNumber(response.body, static_cast<std::int64_t>(status));
    response.body += '}';
    return response;
}

} // namespace lag::serve
