/**
 * @file
 * Telemetry-naming rule: every key that ends up in a metrics
 * snapshot, a trace file, or a run manifest follows one convention,
 * so dashboards and jq filters never chase case or separator
 * variants:
 *
 *  - metric names (Registry counter/gauge/histogram) and manifest
 *    extra keys: lowercase dotted, e.g. "parallel.pool.size".
 *  - trace-span names (GPUSCALE_TRACE_SCOPE / TraceScope): lowercase
 *    dotted with '/' allowed as a hierarchy separator; a literal
 *    ending in '/' ("sweep/") is a prefix completed with a runtime
 *    name.
 *
 * Only the leading string literal of a call is checked — runtime
 * suffixes (kernel names) are free-form.
 */

#include <string>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

class NamingRule : public Rule
{
  public:
    std::string name() const override { return "naming"; }

    std::string
    description() const override
    {
        return "metric, trace-span, and manifest keys are lowercase "
               "dotted";
    }

    void
    run(const SourceRepo &repo, const LintOptions &,
        Report &report) const override
    {
        for (const auto &file : repo.files) {
            if (!file.isCpp())
                continue;
            checkRegistryCalls(file, report);
            checkTraceSpans(file, report);
            checkManifestKeys(file, report);
        }
    }

  private:
    /**
     * The string literal opening a call at `off` (offset of the
     * call token), or nullptr when the argument is not a literal in
     * this statement.
     */
    const StringLiteral *
    callKeyLiteral(const SourceFile &file, size_t off,
                   size_t token_len) const
    {
        const StringLiteral *lit =
            file.literalAtOrAfter(off + token_len);
        if (!lit)
            return nullptr;
        const auto semi = file.code().find(';', off);
        if (semi != std::string::npos && semi < lit->offset)
            return nullptr;
        return lit;
    }

    void
    checkRegistryCalls(const SourceFile &file, Report &report) const
    {
        for (const auto &method :
             {std::string("counter"), std::string("gauge"),
              std::string("histogram")})
        {
            for (size_t off : findTokens(file, method)) {
                const std::string &code = file.code();
                // Only method calls (".counter(") are registrations;
                // "Registry::counter(" is the definition itself.
                if (off == 0 || code[off - 1] != '.')
                    continue;
                const size_t after = off + method.size();
                if (after >= code.size() || code[after] != '(')
                    continue;
                const StringLiteral *lit =
                    callKeyLiteral(file, off, method.size());
                if (!lit)
                    continue;
                if (!isLowercaseDottedKey(lit->text)) {
                    emit(file, lit->line, Severity::Error,
                         strprintf("metric name \"%s\" breaks the "
                                   "lowercase dotted convention "
                                   "(e.g. \"sweep.kernels.count\")",
                                   lit->text.c_str()),
                         report);
                }
            }
        }
    }

    void
    checkTraceSpans(const SourceFile &file, Report &report) const
    {
        for (const auto &token :
             {std::string("GPUSCALE_TRACE_SCOPE"),
              std::string("TraceScope")})
        {
            for (size_t off : findTokens(file, token)) {
                const std::string &code = file.code();
                const size_t after = off + token.size();
                if (after >= code.size() || code[after] != '(')
                    continue;
                // Skip the macro's own definition in trace.hh.
                if (off > 0 && code[off - 1] == '#')
                    continue;
                const StringLiteral *lit =
                    callKeyLiteral(file, off, token.size());
                if (!lit)
                    continue;
                // The literal must open the argument list (allowing
                // whitespace), otherwise this is a declaration or a
                // computed name.
                bool opens = true;
                for (size_t p = after + 1; p < lit->offset; ++p) {
                    const char c = code[p];
                    if (c != ' ' && c != '\n' && c != '\t')
                        opens = false;
                }
                if (!opens)
                    continue;
                if (!isLowercaseSpanName(lit->text)) {
                    emit(file, lit->line, Severity::Error,
                         strprintf("trace span \"%s\" breaks the "
                                   "lowercase dotted/slashed "
                                   "convention (e.g. "
                                   "\"parallel_for.worker\")",
                                   lit->text.c_str()),
                         report);
                }
            }
        }
    }

    void
    checkManifestKeys(const SourceFile &file, Report &report) const
    {
        static const std::string kToken = "extra[";
        const std::string &code = file.code();
        size_t pos = 0;
        while ((pos = code.find(kToken, pos)) != std::string::npos) {
            const size_t off = pos;
            pos += kToken.size();
            if (off == 0 || code[off - 1] != '.')
                continue;
            const StringLiteral *lit =
                file.literalAtOrAfter(off + kToken.size());
            if (!lit || lit->offset != off + kToken.size())
                continue;
            if (!isLowercaseDottedKey(lit->text)) {
                emit(file, lit->line, Severity::Error,
                     strprintf("manifest extra key \"%s\" breaks the "
                               "lowercase dotted convention",
                               lit->text.c_str()),
                     report);
            }
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeNamingRule()
{
    return std::make_unique<NamingRule>();
}

} // namespace analysis
} // namespace gpuscale
