/**
 * @file
 * Rule interface and registry for gpuscale-lint.
 *
 * Eleven rule families keep the repo honest as it grows
 * (docs/static_analysis.md describes each in depth):
 *
 *  - layering:    includes must respect the layer order
 *                 base -> obs -> gpu -> workloads -> scaling ->
 *                 harness -> analysis -> tools, and the header
 *                 include graph must be acyclic.
 *  - concurrency: thread creation and raw mutexes belong to
 *                 harness/thread_pool + harness/parallel; everything
 *                 else goes through parallelFor, is governed by
 *                 guarded_by() annotations (lock-discipline), or
 *                 carries an explicit allow() with a reason.
 *  - locale:      serialized numbers must use to_chars/from_chars;
 *                 atof/strtod and %g/%e-style strprintf formatting
 *                 are locale-dependent and banned outside
 *                 base/logging.
 *  - naming:      metric, trace-span, and manifest-extra keys follow
 *                 the lowercase dotted convention.
 *  - census:      kernel/program registrations across the suite
 *                 sources must add up to the paper's 267 kernels /
 *                 97 programs, and each suite file's header comment
 *                 must match its actual counts.
 *  - error-code:  a declared `std::error_code` must be inspected
 *                 afterwards; a silently dropped error code swallows
 *                 filesystem failures.
 *  - description: instruments registered via counter()/gauge()/
 *                 histogram() must carry a non-empty description —
 *                 it becomes the "# HELP" line and the metrics-table
 *                 entry operators read.
 *  - fp-determinism: reassociation-prone float patterns (accumulate/
 *                 reduce over doubles, unordered-container iteration
 *                 feeding arithmetic or serialization, fast-math
 *                 compiler flags) stay out of the census paths, and
 *                 arithmetic helpers shared by the scalar and batched
 *                 models are defined once, in a shared header.
 *  - fault-coverage: every raw I/O call outside base/fault and
 *                 obs/retry must sit in a scope that calls
 *                 faultPoint() or retryWithBackoff(), so the
 *                 resilience layer cannot be bypassed.
 *  - lock-discipline: fields annotated // guarded_by(mu) may only be
 *                 touched in scopes that constructed a lock on mu
 *                 (or in *Locked helpers whose callers hold it).
 *  - suppression: allow() markers must name real rules; a typoed
 *                 allow(locl) that silently suppresses nothing is
 *                 itself a finding.
 */

#ifndef GPUSCALE_ANALYSIS_RULES_HH
#define GPUSCALE_ANALYSIS_RULES_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/findings.hh"
#include "analysis/source_repo.hh"

namespace gpuscale {
namespace analysis {

/** Paper ground truth the census rule re-derives from the sources. */
struct CensusExpectation {
    size_t kernels = 267;
    size_t programs = 97;
};

/** Knobs for one lint run (tests override the census numbers). */
struct LintOptions {
    CensusExpectation census;
    /**
     * Valid rule names for the suppression rule; when empty (the
     * default) the rule derives the set from allRules() itself.
     */
    std::vector<std::string> known_rules;
};

/** One self-contained invariant checker. */
class Rule
{
  public:
    virtual ~Rule() = default;

    /** Stable identifier used by --rule= and allow() comments. */
    virtual std::string name() const = 0;

    /** One-line summary for --list-rules. */
    virtual std::string description() const = 0;

    virtual void run(const SourceRepo &repo, const LintOptions &opts,
                     Report &report) const = 0;

  protected:
    /**
     * Add a finding unless an allow(<rule-name>) comment covers the
     * line; suppressions are still tallied in the report.  The
     * optional hint becomes the rendered "(fix: ...)" suffix and the
     * SARIF fix-it property.
     */
    void emit(const SourceFile &file, int line, Severity severity,
              std::string message, Report &report,
              std::string hint = "") const;
};

std::unique_ptr<Rule> makeLayeringRule();
std::unique_ptr<Rule> makeConcurrencyRule();
std::unique_ptr<Rule> makeLocaleRule();
std::unique_ptr<Rule> makeNamingRule();
std::unique_ptr<Rule> makeCensusRule();
std::unique_ptr<Rule> makeErrorCodeRule();
std::unique_ptr<Rule> makeDescriptionRule();
std::unique_ptr<Rule> makeFpDeterminismRule();
std::unique_ptr<Rule> makeFaultCoverageRule();
std::unique_ptr<Rule> makeLockDisciplineRule();
std::unique_ptr<Rule> makeSuppressionRule();

/** Every rule, in documentation order. */
std::vector<std::unique_ptr<Rule>> allRules();

/**
 * Offsets of every occurrence of token in the file's code() view
 * whose preceding character is not an identifier character — i.e.
 * `atof(` matches but `myatof(` does not.
 */
std::vector<size_t> findTokens(const SourceFile &file,
                               const std::string &token);

/** True iff s matches [a-z][a-z0-9_]*(\.[a-z0-9_]+)* (metric keys). */
bool isLowercaseDottedKey(const std::string &s);

/**
 * True iff s is a valid trace-span name or prefix: dotted or
 * slash-separated lowercase segments, where a trailing empty segment
 * ("sweep/") marks a prefix completed at runtime.
 */
bool isLowercaseSpanName(const std::string &s);

} // namespace analysis
} // namespace gpuscale

#endif // GPUSCALE_ANALYSIS_RULES_HH
