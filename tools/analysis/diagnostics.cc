#include "diagnostics.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/json.hh"

namespace lag::analysis
{

namespace
{

/** Strip leading/trailing spaces and tabs. */
std::string_view
trim(std::string_view text)
{
    while (!text.empty() &&
           (text.front() == ' ' || text.front() == '\t'))
        text.remove_prefix(1);
    while (!text.empty() &&
           (text.back() == ' ' || text.back() == '\t'))
        text.remove_suffix(1);
    return text;
}

/**
 * True when @p raw carries `lag-lint: <form>(...)` whose
 * comma-separated rule list contains @p rule.
 */
bool
lineAllows(std::string_view raw, std::string_view form,
           std::string_view rule)
{
    const std::string tag = std::string("lag-lint: ") +
                            std::string(form) + "(";
    std::size_t pos = raw.find(tag);
    while (pos != std::string_view::npos) {
        const std::size_t open = pos + tag.size();
        const std::size_t close = raw.find(')', open);
        if (close == std::string_view::npos)
            return false;
        std::string_view list = raw.substr(open, close - open);
        while (!list.empty()) {
            const std::size_t comma = list.find(',');
            const std::string_view item =
                trim(list.substr(0, comma));
            if (item == rule)
                return true;
            if (comma == std::string_view::npos)
                break;
            list.remove_prefix(comma + 1);
        }
        pos = raw.find(tag, close);
    }
    return false;
}

} // namespace

bool
suppressed(const SourceFile &file, std::size_t line,
           std::string_view rule)
{
    if (line == 0 || line > file.raw.size())
        return false;
    if (lineAllows(file.raw[line - 1], "allow", rule))
        return true;
    // `allow-next` on the preceding line suppresses this one. The
    // same-line `allow` form deliberately does not cascade.
    return line >= 2 &&
           lineAllows(file.raw[line - 2], "allow-next", rule);
}

void
Diagnostics::add(const SourceFile &file, std::size_t line,
                 std::string_view rule, std::string message)
{
    if (suppressed(file, line, rule))
        return;
    findings_.push_back(Finding{file.relPath, line,
                                std::string(rule),
                                std::move(message)});
}

void
Diagnostics::printText(const char *tool) const
{
    for (const Finding &f : findings_)
        std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    if (!findings_.empty())
        std::printf("%s: %zu finding(s)\n", tool, findings_.size());
}

std::string
Diagnostics::json(const char *tool) const
{
    std::string out = "{\"tool\": ";
    appendJsonString(out, tool);
    out += ", \"findings\": [";
    bool first = true;
    for (const Finding &f : findings_) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"file\": ";
        appendJsonString(out, f.file);
        out += ", \"line\": " + std::to_string(f.line) + ", \"rule\": ";
        appendJsonString(out, f.rule);
        out += ", \"message\": ";
        appendJsonString(out, f.message);
        out += "}";
    }
    out += "], \"counts\": {\"total\": " +
           std::to_string(findings_.size());
    std::map<std::string, std::size_t> byRule;
    for (const Finding &f : findings_)
        ++byRule[f.rule];
    for (const auto &[rule, count] : byRule) {
        out += ", ";
        appendJsonString(out, rule);
        out += ": " + std::to_string(count);
    }
    out += "}}\n";
    return out;
}

std::string
Diagnostics::summaryLine(const char *tool) const
{
    std::map<std::string, std::size_t> byRule;
    for (const Finding &f : findings_)
        ++byRule[f.rule];
    std::string out = "{\"tool\": ";
    appendJsonString(out, tool);
    out += ", \"findings\": " + std::to_string(findings_.size());
    for (const auto &[rule, count] : byRule) {
        out += ", ";
        appendJsonString(out, rule);
        out += ": " + std::to_string(count);
    }
    out += "}";
    return out;
}

} // namespace lag::analysis
