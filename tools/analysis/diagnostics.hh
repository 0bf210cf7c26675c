/**
 * @file
 * Diagnostics sink shared by the static-analysis tools: findings,
 * visible per-line suppressions, and the two output formats (human
 * text on stdout, a strict RFC-8259 JSON report for CI
 * annotation).
 *
 * Suppression syntax, honored by every rule in every tool:
 *
 *   ... flagged code ...   // lag-lint: allow(rule)
 *   ... flagged code ...   // lag-lint: allow(rule-a, rule-b)
 *   // lag-lint: allow-next(rule)
 *   ... flagged code on the following line ...
 *
 * The same-line form must sit on the exact line the diagnostic
 * names; the allow-next form on the line directly above it. Both
 * accept a comma-separated rule list. Suppressions are grep-able on
 * purpose: every opt-out is visible in the diff that introduces it.
 */

#ifndef LAG_TOOLS_ANALYSIS_DIAGNOSTICS_HH
#define LAG_TOOLS_ANALYSIS_DIAGNOSTICS_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "source.hh"

namespace lag::analysis
{

struct Finding
{
    std::string file;
    std::size_t line; // 1-based
    std::string rule;
    std::string message;
};

/**
 * True when line @p line (1-based) of @p file carries a suppression
 * for @p rule — `allow(...)` on the line itself or `allow-next(...)`
 * on the line above.
 */
bool suppressed(const SourceFile &file, std::size_t line,
                std::string_view rule);

/** Collects findings, applying suppressions at add() time. */
class Diagnostics
{
  public:
    /** Record @p rule firing at @p file:@p line unless the line
     * carries a matching suppression. */
    void add(const SourceFile &file, std::size_t line,
             std::string_view rule, std::string message);

    const std::vector<Finding> &findings() const
    {
        return findings_;
    }

    bool empty() const { return findings_.empty(); }
    std::size_t size() const { return findings_.size(); }

    /** `file:line: [rule] message` per finding, then a count line
     * (`<tool>: N finding(s)`) when anything fired. */
    void printText(const char *tool) const;

    /**
     * Strict-JSON report:
     * {"tool": ..., "findings": [{"file","line","rule","message"}],
     *  "counts": {"total": N, "<rule>": n, ...}}
     * Rules in "counts" are sorted; findings keep add() order.
     */
    std::string json(const char *tool) const;

    /** One-line JSON summary ({"tool",...,"findings":N}) for the CI
     * log, mirroring the bench harness' metric lines. */
    std::string summaryLine(const char *tool) const;

  private:
    std::vector<Finding> findings_;
};

} // namespace lag::analysis

#endif // LAG_TOOLS_ANALYSIS_DIAGNOSTICS_HH
