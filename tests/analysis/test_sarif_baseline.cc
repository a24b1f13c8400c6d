/**
 * @file
 * SARIF renderer and baseline machinery tests.  The SARIF document
 * is parsed back with obs::parseJson and checked against the 2.1.0
 * shape GitHub code scanning requires; the baseline tests pin the
 * key format, comment handling, and --diff semantics.
 */

#include <gtest/gtest.h>

#include "analysis/baseline.hh"
#include "analysis/findings.hh"
#include "analysis/sarif.hh"
#include "obs/json.hh"

namespace {

using namespace gpuscale::analysis;
using gpuscale::obs::JsonValue;
using gpuscale::obs::parseJson;

Finding
mkFinding(const std::string &rule, const std::string &file, int line,
          const std::string &message, Severity sev = Severity::Error,
          const std::string &hint = "")
{
    Finding f;
    f.rule = rule;
    f.severity = sev;
    f.file = file;
    f.line = line;
    f.message = message;
    f.hint = hint;
    return f;
}

std::vector<Finding>
sampleFindings()
{
    return {
        mkFinding("fp-determinism", "src/gpu/model.cc", 42,
                  "std::accumulate over doubles", Severity::Error,
                  "use an explicitly-ordered loop"),
        mkFinding("naming", "src/base/util.hh", 7, "camelCase field",
                  Severity::Warning),
        // Repo-wide finding: no file, no line.
        mkFinding("census", "", 0, "expected 12 workloads, found 11"),
    };
}

std::vector<SarifRuleInfo>
sampleRules()
{
    return {{"fp-determinism", "floating-point determinism hazards"},
            {"naming", "identifier conventions"},
            {"census", "workload census totals"}};
}

TEST(Sarif, DocumentHasTheRequired210Shape)
{
    const auto doc =
        parseJson(renderSarif(sampleFindings(), sampleRules()));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("version").str, "2.1.0");
    EXPECT_NE(doc.at("$schema").str.find("sarif-2.1.0"),
              std::string::npos);

    const auto &runs = doc.at("runs");
    ASSERT_TRUE(runs.isArray());
    ASSERT_EQ(runs.array.size(), 1u);
    const auto &driver = runs.array[0].at("tool").at("driver");
    EXPECT_EQ(driver.at("name").str, "gpuscale-lint");
    EXPECT_TRUE(driver.find("informationUri") != nullptr);

    // Every registered rule appears in driver metadata even when it
    // produced no findings.
    const auto &rules = driver.at("rules");
    ASSERT_TRUE(rules.isArray());
    ASSERT_EQ(rules.array.size(), 3u);
    EXPECT_EQ(rules.array[0].at("id").str, "fp-determinism");
    EXPECT_FALSE(rules.array[0]
                     .at("shortDescription")
                     .at("text")
                     .str.empty());
}

TEST(Sarif, ResultsCarryLocationLevelAndHint)
{
    const auto doc =
        parseJson(renderSarif(sampleFindings(), sampleRules()));
    const auto &results = doc.at("runs").array[0].at("results");
    ASSERT_TRUE(results.isArray());
    ASSERT_EQ(results.array.size(), 3u);

    const auto &first = results.array[0];
    EXPECT_EQ(first.at("ruleId").str, "fp-determinism");
    EXPECT_EQ(first.at("level").str, "error");
    EXPECT_EQ(first.at("message").at("text").str,
              "std::accumulate over doubles");
    const auto &loc =
        first.at("locations").array.at(0).at("physicalLocation");
    EXPECT_EQ(loc.at("artifactLocation").at("uri").str,
              "src/gpu/model.cc");
    EXPECT_EQ(loc.at("region").at("startLine").number, 42.0);
    EXPECT_EQ(first.at("properties").at("hint").str,
              "use an explicitly-ordered loop");

    EXPECT_EQ(results.array[1].at("level").str, "warning");

    // Repo-wide findings must omit locations entirely — an empty
    // uri is invalid SARIF.
    EXPECT_EQ(results.array[2].find("locations"), nullptr);
}

TEST(Baseline, KeyIsLineAgnostic)
{
    auto a = mkFinding("naming", "src/x.cc", 10, "bad name");
    auto b = a;
    b.line = 99;
    EXPECT_EQ(baselineKey(a), baselineKey(b));
    EXPECT_EQ(baselineKey(a), "naming|src/x.cc|bad name");
}

TEST(Baseline, RenderParseRoundTripsAndDedupes)
{
    std::vector<Finding> fs = {
        mkFinding("naming", "src/x.cc", 10, "bad name"),
        mkFinding("naming", "src/x.cc", 20, "bad name"), // same key
        mkFinding("layering", "src/y.cc", 3, "skips a tier"),
    };
    const auto text = renderBaseline(fs);
    const auto keys = parseBaseline(text);
    EXPECT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys.count("naming|src/x.cc|bad name"), 1u);
    EXPECT_EQ(keys.count("layering|src/y.cc|skips a tier"), 1u);
}

TEST(Baseline, ParserSkipsCommentsBlanksAndCrlf)
{
    const auto keys = parseBaseline("# header\n"
                                    "\n"
                                    "naming|src/x.cc|bad name\r\n"
                                    "  \n"
                                    "# trailing comment\n");
    EXPECT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys.count("naming|src/x.cc|bad name"), 1u);
}

TEST(Baseline, DiffReportsOnlyFindingsAbsentFromBaseline)
{
    std::vector<Finding> fs = {
        mkFinding("naming", "src/x.cc", 10, "bad name"),
        mkFinding("layering", "src/y.cc", 3, "skips a tier"),
    };
    const auto baseline = parseBaseline(renderBaseline(
        std::vector<Finding>{fs[0]})); // only the naming finding

    const auto fresh = diffAgainstBaseline(fs, baseline);
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].rule, "layering");

    // A moved-but-otherwise-identical finding stays baselined.
    auto moved = fs[0];
    moved.line = 55;
    EXPECT_TRUE(
        diffAgainstBaseline({moved}, baseline).empty());
}

} // namespace
