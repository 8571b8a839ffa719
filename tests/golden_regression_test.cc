/**
 * @file
 * Golden-regression tests for the figure pipelines.
 *
 * The property suite (model_property_test) checks invariants; this
 * suite checks *values*: it runs the fig03 and fig07 drivers end to
 * end (--fast --quiet --jobs 2) and compares every emitted CSV cell
 * against a checked-in golden produced by the same configuration. The
 * sweeps are deterministic by contract (identical output for any
 * worker count), so the tolerances below are drift guards for
 * compiler/libm variation, not slack for nondeterminism — a real
 * model or simulator change moves these numbers far beyond them and
 * must regenerate the goldens (see docs/observability.md).
 *
 * It also pins the drivers' command-line contract: the fault-tolerance
 * flags run the same single sweep path (byte-identical CSVs, fresh and
 * resumed from a checkpoint), every bench binary's --help lists exactly
 * its declared flags and exits 0, bad flags exit 2 before any work, and
 * a ConfigError after the work exits 2 with one line instead of
 * std::terminate. The tools' --help exits 0 as well.
 *
 * Driver and golden locations arrive as compile definitions from
 * tests/CMakeLists.txt: MEMSENSE_FIG03_BIN, MEMSENSE_FIG07_BIN,
 * MEMSENSE_PERF_SUITE_BIN, MEMSENSE_BENCH_DIR, MEMSENSE_BENCH_DRIVERS
 * (comma-separated names of every bench/ driver), MEMSENSE_TOOLS_DIR,
 * MEMSENSE_GOLDEN_DIR.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace
{

/** One parsed CSV: a header row plus numeric data rows. */
struct Csv
{
    std::vector<std::string> columns;
    std::vector<std::vector<double>> rows;
};

/** Per-column match rule: |a - b| <= abs + rel * max(|a|, |b|). */
struct Tolerance
{
    double rel = 0.0;
    double abs = 0.0;
};

Csv
readCsv(const std::string &path)
{
    Csv out;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::stringstream row(line);
        std::string cell;
        while (std::getline(row, cell, ','))
            cells.push_back(cell);
        if (header) {
            out.columns = cells;
            header = false;
            continue;
        }
        std::vector<double> vals;
        vals.reserve(cells.size());
        for (const std::string &c : cells) {
            std::size_t used = 0;
            vals.push_back(std::stod(c, &used));
            EXPECT_EQ(used, c.size()) << "non-numeric cell '" << c
                                      << "' in " << path;
        }
        out.rows.push_back(std::move(vals));
    }
    return out;
}

/**
 * Compare @p actual against @p golden cell by cell. Grid-input
 * columns (the sweep coordinates) must match exactly; measured
 * columns match under @p measured. A shape mismatch (columns, row
 * count) fails immediately — it means the sweep grid itself changed.
 */
void
expectCsvNear(const std::string &name, const Csv &golden,
              const Csv &actual,
              const std::vector<std::string> &exact_columns,
              Tolerance measured)
{
    ASSERT_EQ(golden.columns, actual.columns) << name;
    ASSERT_EQ(golden.rows.size(), actual.rows.size()) << name;
    for (std::size_t r = 0; r < golden.rows.size(); ++r) {
        ASSERT_EQ(golden.rows[r].size(), golden.columns.size()) << name;
        ASSERT_EQ(actual.rows[r].size(), golden.columns.size()) << name;
        for (std::size_t c = 0; c < golden.columns.size(); ++c) {
            const double g = golden.rows[r][c];
            const double a = actual.rows[r][c];
            const bool exact =
                std::find(exact_columns.begin(), exact_columns.end(),
                          golden.columns[c]) != exact_columns.end();
            const Tolerance tol = exact ? Tolerance{} : measured;
            const double scale =
                std::max(std::fabs(g), std::fabs(a));
            EXPECT_LE(std::fabs(a - g), tol.abs + tol.rel * scale)
                << name << " row " << r << " column '"
                << golden.columns[c] << "': golden " << g << " vs "
                << a;
        }
    }
}

/** Run @p bin with the golden configuration, outputs into @p dir. */
void
runDriver(const std::string &bin, const std::string &dir,
          const std::string &extra_flags = "")
{
    const std::string cmd = bin + " --fast --quiet --jobs 2 --out-dir " +
                            dir + extra_flags + " > " + dir +
                            "/stdout.log 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_EQ(rc, 0) << "driver failed: " << cmd;
}

/** Exit status of a shell command (-1 when it did not exit normally). */
int
exitCode(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** A new, empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Names of the entries in @p dir, sorted. */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** The whole text of @p path ("" when it cannot be read). */
std::string
readText(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Number of lines in @p text. */
long
lineCount(const std::string &text)
{
    return std::count(text.begin(), text.end(), '\n');
}

/** The flag names a CliParser `--help` text lists, sorted. */
std::vector<std::string>
helpFlags(const std::string &help)
{
    std::vector<std::string> names;
    std::stringstream lines(help);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("  --", 0) == 0)
            names.push_back(line.substr(4, line.find(' ', 4) - 4));
    }
    std::sort(names.begin(), names.end());
    return names;
}

/** Every bench/ driver (the paper drivers and perf_suite). */
std::vector<std::string>
benchDrivers()
{
    std::vector<std::string> names;
    std::stringstream list(MEMSENSE_BENCH_DRIVERS);
    std::string name;
    while (std::getline(list, name, ','))
        names.push_back(name);
    return names;
}

/** The flags @p driver declares: the common set plus its own. */
std::vector<std::string>
expectedFlags(const std::string &driver)
{
    std::vector<std::string> flags = {"debug", "help", "quiet"};
    if (driver == "perf_suite") {
        flags.insert(flags.end(),
                     {"benchmark-filter", "bin-dir", "carry-baseline",
                      "jobs-list", "out", "repeats", "skip-microbench"});
    } else {
        flags.insert(flags.end(),
                     {"checkpoint", "fast", "job-timeout-ms", "jobs",
                      "max-retries", "metrics", "out-dir", "trace"});
    }
    if (driver == "fig06_classification")
        flags.push_back("paper");
    for (const char *model :
         {"fig08_bw_sensitivity", "fig09_bw_derivative",
          "fig10_latency_sensitivity", "fig11_latency_derivative",
          "tab7_design_tradeoffs"}) {
        if (driver == model)
            flags.push_back("measured");
    }
    std::sort(flags.begin(), flags.end());
    return flags;
}

/** Raw bytes of every CSV in @p dir, keyed by file name. */
std::map<std::string, std::string>
csvBytes(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const std::string &name : listDir(dir)) {
        if (name.size() < 4 || name.substr(name.size() - 4) != ".csv")
            continue;
        std::ifstream in(dir + "/" + name, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        out[name] = bytes.str();
    }
    return out;
}

/**
 * The fault-tolerance flags select no second code path: a run with
 * --max-retries and --checkpoint, and a rerun resumed from the same
 * journal, both write CSVs byte-identical to the flag-free run.
 */
void
expectResilientRunsByteIdentical(const std::string &bin,
                                 const std::string &name,
                                 const std::string &journal_file)
{
    const std::string plain = freshDir(name + "_plain");
    runDriver(bin, plain);
    const std::map<std::string, std::string> expected = csvBytes(plain);
    ASSERT_FALSE(expected.empty());

    const std::string journal = freshDir(name + "_journal") + "/ckpt";
    const std::string flags = " --max-retries 1 --checkpoint " + journal;
    const std::string fresh = freshDir(name + "_fresh");
    runDriver(bin, fresh, flags);
    EXPECT_EQ(csvBytes(fresh), expected);

    const std::string written = journal + journal_file;
    ASSERT_TRUE(std::filesystem::exists(written)) << written;
    const auto journal_size = std::filesystem::file_size(written);
    const std::string resumed = freshDir(name + "_resumed");
    runDriver(bin, resumed, flags);
    EXPECT_EQ(csvBytes(resumed), expected);
    EXPECT_EQ(std::filesystem::file_size(written), journal_size)
        << "the resumed run must restore every job, not re-run one";
}

void
compareAgainstGolden(const std::string &dir, const std::string &file,
                     const std::vector<std::string> &exact_columns,
                     Tolerance measured)
{
    SCOPED_TRACE(file);
    const Csv golden =
        readCsv(std::string(MEMSENSE_GOLDEN_DIR) + "/" + file);
    const Csv actual = readCsv(dir + "/" + file);
    expectCsvNear(file, golden, actual, exact_columns, measured);
}

TEST(GoldenRegression, Fig03CpiFitsMatchGolden)
{
    const std::string dir = ::testing::TempDir() + "golden_fig03";
    const std::string mk = "mkdir -p " + dir;
    ASSERT_EQ(std::system(mk.c_str()), 0);
    runDriver(MEMSENSE_FIG03_BIN, dir);

    // The frequency/memory grid is exact input data; the measured and
    // fitted CPI columns get the drift tolerance.
    const std::vector<std::string> exact = {"ghz", "mt"};
    const Tolerance tol{1e-4, 1e-6};
    for (const char *w :
         {"fig03_column_store.csv", "fig03_nits.csv",
          "fig03_proximity.csv", "fig03_spark.csv"})
        compareAgainstGolden(dir, w, exact, tol);
}

TEST(GoldenRegression, Fig07QueuingDelayMatchesGolden)
{
    const std::string dir = ::testing::TempDir() + "golden_fig07";
    const std::string mk = "mkdir -p " + dir;
    ASSERT_EQ(std::system(mk.c_str()), 0);
    runDriver(MEMSENSE_FIG07_BIN, dir);

    // delay_cyc is the injected-delay grid; bandwidth, utilization and
    // latency are measured on the simulator. The latency columns sit
    // in the hundreds of ns, so the absolute term covers rounding of
    // near-zero queuing delays.
    const std::vector<std::string> exact = {"delay_cyc"};
    const Tolerance tol{1e-4, 1e-3};
    for (const char *f :
         {"fig07_ddr1333_r100.csv", "fig07_ddr1333_r67.csv",
          "fig07_ddr1867_r100.csv", "fig07_ddr1867_r67.csv"})
        compareAgainstGolden(dir, f, exact, tol);
}

TEST(GoldenRegression, ResilientFlagsKeepFig03CsvsByteIdentical)
{
    expectResilientRunsByteIdentical(MEMSENSE_FIG03_BIN, "resilient_fig03",
                                     "");
}

TEST(GoldenRegression, ResilientFlagsKeepFig07CsvsByteIdentical)
{
    // One --checkpoint path covers the four curves as PATH.mlc<i>.
    expectResilientRunsByteIdentical(MEMSENSE_FIG07_BIN, "resilient_fig07",
                                     ".mlc0");
}

TEST(GoldenRegression, BadOutDirExitsTwoBeforeAnyWork)
{
    const std::string dir = freshDir("bad_out_dir");
    const std::string logs = freshDir("bad_out_dir_logs");
    std::ofstream(dir + "/plain_file") << "not a directory\n";
    for (const char *bin : {MEMSENSE_FIG03_BIN, MEMSENSE_FIG07_BIN}) {
        for (const std::string &out :
             {dir + "/missing", dir + "/plain_file", std::string()}) {
            const std::string cmd = std::string(bin) +
                                    " --fast --quiet --out-dir='" + out +
                                    "' > " + logs + "/out.log 2> " + logs +
                                    "/err.log";
            EXPECT_EQ(exitCode(cmd), 2) << cmd;
            std::ifstream err(logs + "/err.log");
            std::string line;
            int lines = 0;
            while (std::getline(err, line))
                ++lines;
            EXPECT_EQ(lines, 1) << "want a one-line error: " << cmd;
        }
    }
    EXPECT_EQ(listDir(dir), std::vector<std::string>{"plain_file"})
        << "a rejected run must write nothing";
}

TEST(GoldenRegression, MalformedResilienceFlagsExitTwo)
{
    const std::string dir = freshDir("bad_resilience_flags");
    const std::string logs = freshDir("bad_resilience_flags_logs");
    for (const char *bin : {MEMSENSE_FIG03_BIN, MEMSENSE_FIG07_BIN}) {
        for (const char *flag :
             {"--max-retries abc", "--max-retries -1", "--max-retries 1.5",
              "--max-retries=", "--job-timeout-ms soon",
              "--job-timeout-ms -5", "--checkpoint="}) {
            const std::string cmd = std::string(bin) +
                                    " --fast --quiet --out-dir " + dir +
                                    " " + flag + " > " + logs +
                                    "/out.log 2>&1";
            EXPECT_EQ(exitCode(cmd), 2) << cmd;
        }
    }
    EXPECT_TRUE(listDir(dir).empty()) << "a rejected run must write nothing";
}

TEST(GoldenRegression, PerfSuiteHelpAndUnknownFlagsWriteNothing)
{
    const std::string dir = freshDir("perf_suite_cwd");
    const std::string logs = freshDir("perf_suite_logs");
    const std::string run = "cd " + dir + " && " + MEMSENSE_PERF_SUITE_BIN;
    EXPECT_EQ(exitCode(run + " --help > " + logs + "/help.log 2>&1"), 0);
    EXPECT_EQ(exitCode(run + " --no-such-flag > " + logs +
                       "/unknown.log 2>&1"),
              2);
    EXPECT_EQ(exitCode(run + " --repeats > " + logs + "/novalue.log 2>&1"),
              2);
    // A bad --jobs-list entry is caught before the scratch directory
    // under /tmp is created, so it leaves no directory behind.
    auto scratchDirs = [] {
        std::vector<std::string> names;
        for (const auto &e : std::filesystem::directory_iterator("/tmp")) {
            const std::string name = e.path().filename().string();
            if (name.rfind("memsense_perf_", 0) == 0)
                names.push_back(name);
        }
        std::sort(names.begin(), names.end());
        return names;
    };
    const std::vector<std::string> before = scratchDirs();
    for (const char *list : {"0", "1,x"}) {
        EXPECT_EQ(exitCode(run + " --jobs-list " + list + " > " + logs +
                           "/jobs_list.log 2>&1"),
                  2)
            << list;
    }
    EXPECT_EQ(scratchDirs(), before);
    EXPECT_TRUE(listDir(dir).empty())
        << "--help and flag errors must not run the suite";
    std::ifstream help(logs + "/help.log");
    std::ostringstream text;
    text << help.rdbuf();
    EXPECT_NE(text.str().find("--repeats"), std::string::npos) << text.str();
}

TEST(GoldenRegression, EveryDriverRejectsBadCommandLinesBeforeAnyWork)
{
    const std::vector<std::string> drivers = benchDrivers();
    ASSERT_EQ(drivers.size(), 27u) << "26 paper drivers plus perf_suite";
    const std::string cwd = freshDir("driver_cli_cwd");
    const std::string out = freshDir("driver_cli_out");
    const std::string logs = freshDir("driver_cli_logs");
    for (const std::string &name : drivers) {
        const std::string bin =
            "cd " + cwd + " && " + MEMSENSE_BENCH_DIR + "/" + name;
        const std::string out_dir =
            name == "perf_suite" ? "" : " --out-dir " + out;
        for (const char *bad :
             {" --no-such-flag", " 4", " --jobs abc", " --jobs"}) {
            const std::string cmd = bin + out_dir + bad + " > " + logs +
                                    "/out.log 2> " + logs + "/err.log";
            EXPECT_EQ(exitCode(cmd), 2) << cmd;
            EXPECT_EQ(lineCount(readText(logs + "/err.log")), 1) << cmd;
        }
        const std::string help = bin + " --help > " + logs + "/help.log";
        EXPECT_EQ(exitCode(help), 0) << help;
        EXPECT_EQ(helpFlags(readText(logs + "/help.log")),
                  expectedFlags(name))
            << name;
    }
    EXPECT_TRUE(listDir(cwd).empty()) << "a rejected run must write nothing";
    EXPECT_TRUE(listDir(out).empty()) << "a rejected run must write nothing";
}

TEST(GoldenRegression, MisspelledDriverFlagExitsTwo)
{
    const std::string logs = freshDir("misspelled_flag_logs");
    const std::string cmd = std::string(MEMSENSE_BENCH_DIR) +
                            "/fig06_classification --papr > " + logs +
                            "/out.log 2>&1";
    EXPECT_EQ(exitCode(cmd), 2) << cmd;
    EXPECT_EQ(readText(logs + "/out.log").find("=== memsense"),
              std::string::npos)
        << "the driver must not start its experiment";
}

TEST(GoldenRegression, CalibrateUnknownWorkloadExitsTwoWithOneLine)
{
    const std::string logs = freshDir("calibrate_unknown_logs");
    const std::string cmd = std::string(MEMSENSE_BENCH_DIR) +
                            "/calibrate_workloads nosuch > " + logs +
                            "/out.log 2> " + logs + "/err.log";
    EXPECT_EQ(exitCode(cmd), 2) << cmd;
    const std::string err = readText(logs + "/err.log");
    EXPECT_EQ(lineCount(err), 1) << err;
    EXPECT_NE(err.find("nosuch"), std::string::npos) << err;
}

TEST(GoldenRegression, ConfigErrorAfterTheSweepExitsTwo)
{
    // A directory squatting on the CSV's temp path makes the first
    // artifact write fail after the whole sweep has run.
    const std::string dir = freshDir("config_error_after_work");
    const std::string logs = freshDir("config_error_after_work_logs");
    std::filesystem::create_directory(dir + "/fig03_column_store.csv.tmp");
    const std::string cmd = std::string(MEMSENSE_FIG03_BIN) +
                            " --fast --quiet --out-dir " + dir + " > " +
                            logs + "/out.log 2> " + logs + "/err.log";
    EXPECT_EQ(exitCode(cmd), 2) << cmd;
    const std::string err = readText(logs + "/err.log");
    EXPECT_EQ(lineCount(err), 1) << err;
    EXPECT_EQ(err.find("terminate called"), std::string::npos) << err;
    EXPECT_EQ(err.rfind("fig03_cpi_fits: ", 0), 0u) << err;
}

TEST(GoldenRegression, ToolsExitZeroOnHelpAndOneOnMalformedNumbers)
{
    const std::string logs = freshDir("tool_cli_logs");
    auto run = [&](const std::string &args) {
        return exitCode(std::string(MEMSENSE_TOOLS_DIR) + "/" + args +
                        " < /dev/null > " + logs + "/out.log 2>&1");
    };
    for (const char *sub :
         {"solve", "sweep", "tradeoff", "characterize", "timeseries", "mlc",
          "classify", "tier", "report", "trace"})
        EXPECT_EQ(run(std::string("memsense ") + sub + " --help"), 0) << sub;
    for (const char *tool :
         {"memsense_eval", "memsense_serve", "memsense_loadgen"})
        EXPECT_EQ(run(std::string(tool) + " --help"), 0) << tool;
    // Error exits keep the codes docs/serving.md documents.
    EXPECT_EQ(run("memsense_eval --jobs abc"), 1);
    EXPECT_EQ(run("memsense sweep latency --ghz 2.7x"), 1);
}

} // anonymous namespace
