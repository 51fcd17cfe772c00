// Command-line tests: drive the built dioscc and diosd binaries as a user
// would and pin their contracts — exit codes (0 ok, 1 compile failure,
// 2 user error), the `--json --emit-c` stdout shape (one JSON object on
// line 1, the C text after it), byte-identical C across every compile
// route (local, cold and warm --cache-dir, --remote against a live
// daemon, --remote falling back locally), the --batch --json array,
// numeric flag ranges, diosd's graceful drain on SIGTERM, and the JSON
// contracts: the ordered --json keys, the daemon status spelling, and
// every compiler/report_fields.h row in --json and on the wire.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/driver.h"
#include "compiler/report_fields.h"
#include "kernels/kernels.h"
#include "machine/program.h"
#include "scalar/parse.h"
#include "service/compile_service.h"
#include "service/serialize.h"
#include "support/json.h"

namespace {

using namespace diospyros;
namespace fs = std::filesystem;

const std::string kVadd =
    std::string(DIOS_SOURCE_DIR) + "/tools/kernels/vadd.ksp";
const std::string kDot4 =
    std::string(DIOS_SOURCE_DIR) + "/tools/kernels/dot4.ksp";

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag)
        : path(fs::temp_directory_path() /
               ("dios_cli_test_" + tag + "_" + std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string file(const std::string& name) const
    {
        return (path / name).string();
    }
};

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Forks `argv` with stdout/stderr redirected to files; returns the pid. */
pid_t
spawn(const std::vector<std::string>& argv, const std::string& out_path,
      const std::string& err_path)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int out = ::open(out_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int err = ::open(err_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0) {
            ::_exit(127);
        }
        ::dup2(out, STDOUT_FILENO);
        ::dup2(err, STDERR_FILENO);
        std::vector<char*> args;
        for (const std::string& a : argv) {
            args.push_back(const_cast<char*>(a.c_str()));
        }
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    return pid;
}

int
wait_exit_code(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
        return -1;
    }
    return WEXITSTATUS(status);
}

struct ToolRun {
    int code = -1;
    std::string out;
    std::string err;
};

/** Runs dioscc to completion with `args`. */
ToolRun
dioscc(const TempDir& dir, std::vector<std::string> args)
{
    args.insert(args.begin(), DIOSCC_PATH);
    const std::string out = dir.file("stdout");
    const std::string err = dir.file("stderr");
    ToolRun run;
    run.code = wait_exit_code(spawn(args, out, err));
    run.out = read_file(out);
    run.err = read_file(err);
    return run;
}

/**
 * Minimal JSON syntax check: parses one value starting at `pos` and
 * advances past it; false on any syntax error. When the value is an
 * array, `elements` receives its element count.
 */
bool
parse_json_value(const std::string& s, std::size_t& pos,
                 std::size_t* elements = nullptr)
{
    auto skip_ws = [&] {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                                  s[pos] == '\t' || s[pos] == '\r')) {
            ++pos;
        }
    };
    auto parse_string = [&] {
        if (pos >= s.size() || s[pos] != '"') {
            return false;
        }
        for (++pos; pos < s.size(); ++pos) {
            const unsigned char c = static_cast<unsigned char>(s[pos]);
            if (c < 0x20) {
                return false;
            }
            if (c == '\\') {
                ++pos;
            } else if (c == '"') {
                ++pos;
                return true;
            }
        }
        return false;
    };
    skip_ws();
    if (pos >= s.size()) {
        return false;
    }
    const char c = s[pos];
    if (c == '"') {
        return parse_string();
    }
    if (c == '{' || c == '[') {
        const char close = c == '{' ? '}' : ']';
        std::size_t count = 0;
        ++pos;
        skip_ws();
        if (pos < s.size() && s[pos] == close) {
            ++pos;
        } else {
            while (true) {
                if (c == '{') {
                    skip_ws();
                    if (!parse_string()) {
                        return false;
                    }
                    skip_ws();
                    if (pos >= s.size() || s[pos++] != ':') {
                        return false;
                    }
                }
                if (!parse_json_value(s, pos)) {
                    return false;
                }
                ++count;
                skip_ws();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == close) {
                    ++pos;
                    break;
                }
                return false;
            }
        }
        if (elements != nullptr) {
            *elements = count;
        }
        return true;
    }
    const std::size_t start = pos;
    while (pos < s.size() &&
           std::string("+-.0123456789eEtruefalsn").find(s[pos]) !=
               std::string::npos) {
        ++pos;
    }
    return pos > start;
}

/** True iff `text` is exactly one JSON value (surrounding whitespace ok). */
bool
is_one_json_value(const std::string& text, std::size_t* elements = nullptr)
{
    std::size_t pos = 0;
    if (!parse_json_value(text, pos, elements)) {
        return false;
    }
    while (pos < text.size() && (text[pos] == '\n' || text[pos] == ' ')) {
        ++pos;
    }
    return pos == text.size();
}

/**
 * The keys of the JSON object that opens at `text[pos]`, in order, nested
 * values skipped. Expects valid JSON (check with is_one_json_value).
 */
std::vector<std::string>
object_keys(const std::string& text, std::size_t pos)
{
    std::vector<std::string> keys;
    int depth = 0;
    for (; pos < text.size(); ++pos) {
        const char c = text[pos];
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth == 0) {
                break;
            }
        } else if (c == '"') {
            const std::size_t start = ++pos;
            for (; text[pos] != '"'; ++pos) {
                pos += text[pos] == '\\';
            }
            if (depth == 1 && text[pos + 1] == ':') {
                keys.push_back(text.substr(start, pos - start));
            }
        }
    }
    return keys;
}

/** The keys of the object that follows `"name":[` in `text`, if any. */
std::vector<std::string>
element_keys(const std::string& text, const std::string& name)
{
    const std::size_t at = text.find("\"" + name + "\":[{");
    return at == std::string::npos
               ? std::vector<std::string>{}
               : object_keys(text, at + name.size() + 4);
}

/** Splits `--json --emit-c` stdout into its JSON line and the C after it. */
struct JsonAndC {
    std::string json;
    std::string c;
};

JsonAndC
split_json_line(const std::string& out)
{
    const std::size_t nl = out.find('\n');
    if (nl == std::string::npos) {
        return {out, ""};
    }
    return {out.substr(0, nl), out.substr(nl + 1)};
}

/** The live entry files of the cache at `dir`, sorted. */
std::vector<std::string>
cache_entries(const std::string& dir)
{
    std::vector<std::string> out;
    if (!fs::exists(dir)) {
        return out;
    }
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
        const std::string p = e.path().string();
        if (e.path().extension() == ".sexpr" &&
            p.find("quarantine") == std::string::npos) {
            out.push_back(p);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** A diosd child on a socket in `dir`; SIGKILLed if still up at scope exit. */
class Diosd {
  public:
    explicit Diosd(const TempDir& dir)
        : socket_(dir.file("d.sock")), out_(dir.file("diosd.out")),
          err_(dir.file("diosd.err"))
    {
        pid_ = spawn({DIOSD_PATH, "--socket", socket_, "--jobs", "1"},
                     out_, err_);
        for (int i = 0; i < 500 && !fs::exists(socket_); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    ~Diosd()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }
    Diosd(const Diosd&) = delete;
    Diosd& operator=(const Diosd&) = delete;

    const std::string& socket() const { return socket_; }
    bool listening() const { return fs::exists(socket_); }

    /** SIGTERM, then the exit code (-1 if it did not exit cleanly). */
    int terminate()
    {
        ::kill(pid_, SIGTERM);
        const int code = wait_exit_code(pid_);
        pid_ = -1;
        return code;
    }
    std::string stderr_text() const { return read_file(err_); }

  private:
    std::string socket_;
    std::string out_;
    std::string err_;
    pid_t pid_ = -1;
};

// ---------------------------------------------------------------------------
// Exit codes
// ---------------------------------------------------------------------------

TEST(Cli, ExitCodes)
{
    TempDir dir("exit");
    EXPECT_EQ(dioscc(dir, {kVadd}).code, 0);
    EXPECT_EQ(dioscc(dir, {kVadd, "--bogus"}).code, 2);
    EXPECT_EQ(dioscc(dir, {kVadd, "--width", "abc"}).code, 2);
    EXPECT_EQ(dioscc(dir, {}).code, 2);
    // A numeric flag is range-checked on every route and never narrowed.
    for (const std::vector<std::string>& args :
         std::vector<std::vector<std::string>>{
             {kVadd, "--iters", "4294967297", "--json"},
             {kVadd, "--strict", "--width", "4294967300"},
             {kVadd, "--strict", "--timeout", "inf"},
             {kVadd, "--strict", "--iters", "2000000000"},
             {kVadd, "--jobs", "4294967297"},
         }) {
        const ToolRun run = dioscc(dir, args);
        EXPECT_EQ(run.code, 2) << args[1] << " " << args[2] << "\n"
                               << run.err;
    }

    const std::string bad = dir.file("bad.ksp");
    std::ofstream(bad) << "(kernel broken (param n";
    EXPECT_EQ(dioscc(dir, {bad}).code, 2);
    EXPECT_EQ(dioscc(dir, {dir.file("missing.ksp")}).code, 2);

    // Every degradation rung fails: a compile failure, not a user error.
    EXPECT_EQ(dioscc(dir, {kVadd, "--fault", "lower.term:1:*"}).code, 1);
}

TEST(Cli, OutOfRangeFlagNamesTheFlagAndTheValueAsWritten)
{
    TempDir dir("range");
    const ToolRun run = dioscc(dir, {kVadd, "--iters", "4294967297"});
    EXPECT_EQ(run.code, 2);
    EXPECT_NE(run.err.find("--iters 4294967297 is out of range"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(run.err.find("e+09 is"), std::string::npos) << run.err;
}

TEST(Cli, DiosdJobsIsCheckedTo1024)
{
    TempDir dir("diosd-jobs");
    for (const char* jobs : {"4294967297", "1025"}) {
        // A daemon that accepted the value would serve until killed.
        const std::string err = dir.file("stderr");
        const pid_t pid =
            spawn({DIOSD_PATH, "--socket", dir.file("sock"), "--jobs", jobs},
                  dir.file("stdout"), err);
        int status = 0;
        pid_t done = 0;
        for (int i = 0; i < 500 && done == 0; ++i) {
            done = ::waitpid(pid, &status, WNOHANG);
            if (done == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        }
        if (done == 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            ADD_FAILURE() << "diosd --jobs " << jobs << " started serving";
            continue;
        }
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 2) << jobs;
        EXPECT_NE(read_file(err).find("--jobs must be at most 1024"),
                  std::string::npos)
            << read_file(err);
    }
}

TEST(Cli, HelpPrintsEveryFlagOnStdoutAndExits0)
{
    TempDir dir("help");
    const ToolRun run = dioscc(dir, {"--help"});
    EXPECT_EQ(run.code, 0) << run.err;
    EXPECT_TRUE(run.err.empty()) << run.err;
    EXPECT_EQ(run.out.rfind("usage: dioscc", 0), 0u) << run.out;
    for (const char* flag : {"--width", "--verify-machine", "--strategy",
                             "--cache-dir", "--list-faults"}) {
        EXPECT_NE(run.out.find(flag), std::string::npos) << flag;
    }
    // After a kernel path, --help still only prints the help.
    EXPECT_EQ(dioscc(dir, {kVadd, "--help"}).code, 0);
}

// ---------------------------------------------------------------------------
// --json --emit-c, and byte identity across compile routes
// ---------------------------------------------------------------------------

TEST(Cli, JsonEmitCIsOneObjectThenTheCText)
{
    TempDir dir("json");
    const ToolRun run = dioscc(dir, {kVadd, "--json", "--emit-c"});
    ASSERT_EQ(run.code, 0) << run.err;
    const JsonAndC parts = split_json_line(run.out);
    EXPECT_TRUE(is_one_json_value(parts.json)) << parts.json;
    EXPECT_EQ(parts.json.front(), '{');
    EXPECT_NE(parts.json.find("\"ok\":true"), std::string::npos);
    // Without --strategy, saturation runs the built-in default strategy.
    EXPECT_NE(parts.json.find("\"strategy\":\"default\""),
              std::string::npos);
    EXPECT_NE(parts.json.find("\"phases\":[{\"phase\":\"saturate\""),
              std::string::npos)
        << parts.json;
    EXPECT_NE(parts.c.find("// Generated by"), std::string::npos) << parts.c;
}

TEST(Cli, EmitCStdoutIsTheCAlone)
{
    // The '; [miss] ... time=...' commentary goes to stderr, so stdout is
    // the C text alone and the same bytes on every run.
    TempDir dir("emit_c");
    const ToolRun first = dioscc(dir, {kVadd, "--emit-c"});
    ASSERT_EQ(first.code, 0) << first.err;
    EXPECT_EQ(first.out.rfind("\n// Generated by", 0), 0u) << first.out;
    EXPECT_NE(first.err.find("; [miss]"), std::string::npos) << first.err;
    const ToolRun second = dioscc(dir, {kVadd, "--emit-c"});
    ASSERT_EQ(second.code, 0) << second.err;
    EXPECT_EQ(second.out, first.out);
}

TEST(Cli, EmitCBytesAreIdenticalOnEveryRoute)
{
    TempDir dir("routes");
    const std::string cache = dir.file("cache");
    auto emit_c = [&](std::vector<std::string> extra,
                      const std::string& want_cache) {
        std::vector<std::string> args = {kDot4, "--json", "--emit-c"};
        args.insert(args.end(), extra.begin(), extra.end());
        const ToolRun run = dioscc(dir, args);
        EXPECT_EQ(run.code, 0) << run.err;
        const JsonAndC parts = split_json_line(run.out);
        EXPECT_TRUE(is_one_json_value(parts.json)) << parts.json;
        if (!want_cache.empty()) {
            EXPECT_NE(parts.json.find("\"cache\":\"" + want_cache + "\""),
                      std::string::npos)
                << parts.json;
        }
        return parts.c;
    };

    const std::string local = emit_c({}, "");
    ASSERT_FALSE(local.empty());
    EXPECT_EQ(emit_c({"--cache-dir", cache}, "miss"), local);
    EXPECT_EQ(cache_entries(cache).size(), 1u);
    EXPECT_EQ(emit_c({"--cache-dir", cache}, "hit"), local);

    Diosd daemon(dir);
    ASSERT_TRUE(daemon.listening());
    EXPECT_EQ(emit_c({"--remote", daemon.socket()}, "remote"), local);
    EXPECT_EQ(emit_c({"--remote", dir.file("dead.sock")}, "local-fallback"),
              local);
}

TEST(Cli, TwoColdProcessesStoreIdenticalEnvelopes)
{
    // An entry holds nothing that reads a clock, so two processes that
    // compile the same kernel cold into two caches store the same bytes.
    TempDir dir("two_cold");
    std::vector<std::string> texts;
    for (const char* name : {"a", "b"}) {
        const std::string cache = dir.file(name);
        const ToolRun run = dioscc(dir, {kDot4, "--cache-dir", cache});
        ASSERT_EQ(run.code, 0) << run.err;
        const std::vector<std::string> entries = cache_entries(cache);
        ASSERT_EQ(entries.size(), 1u);
        texts.push_back(read_file(entries[0]));
    }
    EXPECT_FALSE(texts[0].empty());
    EXPECT_EQ(texts[0], texts[1]);
}

TEST(Cli, WidthSelectsTheWidthPresetOnEveryRoute)
{
    // `--width N` compiles for TargetSpec::for_width(N) — the target the
    // benches measure, its vector div/sqrt penalties included — locally
    // and through diosd alike. A lane count on the default target would
    // schedule the same code but simulate fewer cycles.
    TempDir dir("width");
    const std::string ksp = dir.file("vnorm.ksp");
    std::ofstream(ksp) << "(kernel vnorm (param n 8) (input a n) "
                          "(input b n) (output c n) (for i 0 n (store c i "
                          "(/ (load a i) (sqrt (load b i))))))\n";
    const scalar::Kernel kernel = scalar::parse_kernel_file(ksp);
    CompilerOptions options;
    options.target = TargetSpec::for_width(8);
    options.limits = RunnerLimits{.node_limit = 300'000,
                                  .iter_limit = 12,
                                  .time_limit_seconds = 20.0};
    const CompiledKernel want = compile_kernel(kernel, options);
    const std::string want_text =
        "\n" + want.c_source + "\n; scheduled DSP assembly\n" +
        disassemble(want.machine, 8);
    const std::uint64_t want_cycles =
        want.run(kernels::make_inputs(kernel, 1), options.target)
            .result.cycles;
    const std::string want_run =
        ";   diospyros          : " + std::to_string(want_cycles) + " (";

    auto check = [&](std::vector<std::string> extra, const char* route) {
        std::vector<std::string> args = {ksp,        "--width",    "8",
                                         "--json",   "--emit-c",   "--emit-asm"};
        args.insert(args.end(), extra.begin(), extra.end());
        const ToolRun emitted = dioscc(dir, args);
        ASSERT_EQ(emitted.code, 0) << route << ": " << emitted.err;
        EXPECT_EQ(split_json_line(emitted.out).c, want_text) << route;

        args = {ksp, "--width", "8", "--run", "--seed", "1"};
        args.insert(args.end(), extra.begin(), extra.end());
        const ToolRun ran = dioscc(dir, args);
        ASSERT_EQ(ran.code, 0) << route << ": " << ran.err;
        EXPECT_NE(ran.out.find(want_run), std::string::npos)
            << route << ": want " << want_run << "\n" << ran.out;
    };
    check({}, "local");
    Diosd daemon(dir);
    ASSERT_TRUE(daemon.listening());
    check({"--remote", daemon.socket()}, "remote");
}

// ---------------------------------------------------------------------------
// --batch
// ---------------------------------------------------------------------------

TEST(Cli, BatchJsonHasOneElementPerEntryAndABadPathExits2)
{
    TempDir dir("batch");
    const std::string manifest = dir.file("manifest");
    std::ofstream(manifest) << "# three entries, one missing\n"
                            << kVadd << "\n\n"
                            << dir.file("missing.ksp") << "\n"
                            << kDot4 << "\n";
    const ToolRun run = dioscc(dir, {"--batch", manifest, "--json"});
    EXPECT_EQ(run.code, 2) << run.err;
    std::size_t elements = 0;
    EXPECT_TRUE(is_one_json_value(run.out, &elements)) << run.out;
    EXPECT_EQ(run.out.front(), '[');
    EXPECT_EQ(elements, 3u);
    EXPECT_NE(run.out.find("\"user_error\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flags a mode cannot honour are rejected, never silently ignored
// ---------------------------------------------------------------------------

TEST(Cli, StrictRejectsCacheDirInsteadOfIgnoringIt)
{
    TempDir dir("strict");
    const std::string cache = dir.file("cache");
    const ToolRun run = dioscc(dir, {kVadd, "--strict", "--cache-dir", cache});
    EXPECT_EQ(run.code, 2) << run.err;
    EXPECT_NE(run.err.find("--cache-dir"), std::string::npos) << run.err;
    EXPECT_EQ(cache_entries(cache).size(), 0u);
    // --strict still honours the flags it can.
    EXPECT_EQ(dioscc(dir, {kVadd, "--strict", "--verify-machine"}).code, 0);
}

TEST(Cli, RemoteFallbackHonoursTheCacheDir)
{
    TempDir dir("fallback");
    const std::string cache = dir.file("cache");
    const ToolRun run = dioscc(dir, {kVadd, "--json", "--remote",
                                     dir.file("dead.sock"), "--cache-dir",
                                     cache});
    EXPECT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("\"cache\":\"local-fallback\""),
              std::string::npos)
        << run.out;
    EXPECT_EQ(cache_entries(cache).size(), 1u);
    // The fallback's store serves the next plain local run.
    const ToolRun warm = dioscc(dir, {kVadd, "--json", "--cache-dir", cache});
    EXPECT_NE(warm.out.find("\"cache\":\"hit\""), std::string::npos)
        << warm.out;
}

TEST(Cli, EveryFlagIsParsedBeforeAnyModeRuns)
{
    TempDir dir("order");
    EXPECT_EQ(dioscc(dir, {"--list-faults", "--bogus"}).code, 2);
    EXPECT_EQ(dioscc(dir, {"--bogus", "--list-faults"}).code, 2);
    const ToolRun list = dioscc(dir, {"--list-faults"});
    EXPECT_EQ(list.code, 0);
    EXPECT_FALSE(list.out.empty());
}

TEST(Cli, FlagsOutsideTheirModeExit2)
{
    TempDir dir("modes");
    const std::string manifest = dir.file("manifest");
    std::ofstream(manifest) << kVadd << "\n";
    const std::string sock = dir.file("dead.sock");
    const std::vector<std::vector<std::string>> rejected = {
        {"--batch", manifest, "--emit-c"},
        {"--batch", manifest, "--run"},
        {"--batch", manifest, kVadd},
        {kVadd, "--remote", sock, "--strict"},
        {kVadd, "--remote", sock, "--fault", "lower.term"},
        {kVadd, "--priority", "batch"},
        {kVadd, "--lint-rules"},
        {"--lint-rules", "--json"},
        {"--list-faults", "--width", "4"},
    };
    for (const std::vector<std::string>& args : rejected) {
        const ToolRun run = dioscc(dir, args);
        EXPECT_EQ(run.code, 2) << args.back() << "\n" << run.err;
        EXPECT_TRUE(run.out.empty()) << run.out;
    }
    // The deleted server flags: diosd is the only server.
    for (const char* gone :
         {"--serve", "--read-deadline-s", "--drain-deadline-s",
          "--shed-watermark", "--neg-cache-ttl-s"}) {
        EXPECT_EQ(dioscc(dir, {kVadd, gone, "1"}).code, 2) << gone;
    }
}

TEST(Cli, StrictBatchCompilesEveryKernelOnTheStrictRoute)
{
    TempDir dir("strict_batch");
    const std::string manifest = dir.file("manifest");
    std::ofstream(manifest) << kVadd << "\n" << kDot4 << "\n";
    const ToolRun run =
        dioscc(dir, {"--batch", manifest, "--strict", "--json"});
    EXPECT_EQ(run.code, 0) << run.err;
    std::size_t elements = 0;
    EXPECT_TRUE(is_one_json_value(run.out, &elements)) << run.out;
    EXPECT_EQ(elements, 2u);
    EXPECT_EQ(run.out.find("\"ok\":false"), std::string::npos) << run.out;
}

// ---------------------------------------------------------------------------
// diosd
// ---------------------------------------------------------------------------

TEST(Cli, DiosdDrainsOnSigtermAndPrintsFinalMetrics)
{
    TempDir dir("diosd");
    Diosd daemon(dir);
    ASSERT_TRUE(daemon.listening());
    const ToolRun remote = dioscc(dir, {kVadd, "--remote", daemon.socket()});
    EXPECT_EQ(remote.code, 0) << remote.err;
    EXPECT_EQ(daemon.terminate(), 0);
    const std::string err = daemon.stderr_text();
    EXPECT_NE(err.find("draining"), std::string::npos) << err;
    EXPECT_NE(err.find("final metrics: {"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// JSON contracts
// ---------------------------------------------------------------------------

using Keys = std::vector<std::string>;

TEST(Cli, JsonKeysKeepTheirOrder)
{
    TempDir dir("keys");
    const Keys header = {"kernel", "ok", "cache", "queue_wait_ms"};
    Keys ok = header;
    for (const char* k :
         {"total_seconds", "saturation_seconds", "egraph_nodes",
          "egraph_classes", "iterations", "stop", "extracted_cost",
          "spec_elements", "memory_proxy_bytes", "lvn_removed",
          "fallback_level", "fallback", "error", "validation",
          "random_check_passed", "machine_validation", "machine_validated",
          "machine_witness", "attempts", "rule_stats", "ematch_matches",
          "ematch_search_seconds", "ematch_apply_seconds", "strategy",
          "goal_satisfied", "phases"}) {
        ok.push_back(k);
    }
    const ToolRun run = dioscc(dir, {kVadd, "--json"});
    ASSERT_EQ(run.code, 0) << run.err;
    ASSERT_TRUE(is_one_json_value(run.out)) << run.out;
    EXPECT_EQ(object_keys(run.out, 0), ok);
    EXPECT_EQ(element_keys(run.out, "attempts"),
              (Keys{"level", "rung", "seconds", "error"}));
    const Keys rule = {"rule",          "matches",      "applications",
                       "search_seconds", "apply_seconds", "times_banned",
                       "banned_until"};
    EXPECT_EQ(element_keys(run.out, "rule_stats"), rule);
    const Keys phase = {"phase",          "runs",           "skipped",
                        "stop",           "iterations",     "nodes",
                        "classes",        "sketch_checked", "sketch_satisfied",
                        "seconds",        "rule_stats",     "matches",
                        "applications"};
    EXPECT_EQ(element_keys(run.out, "phases"), phase);

    const ToolRun failed =
        dioscc(dir, {kVadd, "--json", "--fault", "lower.term:1:*"});
    ASSERT_EQ(failed.code, 1) << failed.err;
    ASSERT_TRUE(is_one_json_value(failed.out)) << failed.out;
    Keys fail = header;
    for (const char* k :
         {"retry_after_ms", "user_error", "fallback_level", "error"}) {
        fail.push_back(k);
    }
    EXPECT_EQ(object_keys(failed.out, 0), fail);

    const std::string manifest = dir.file("manifest");
    std::ofstream(manifest) << kVadd << "\n";
    const ToolRun batch = dioscc(dir, {"--batch", manifest, "--json"});
    ASSERT_EQ(batch.code, 0) << batch.err;
    ASSERT_TRUE(is_one_json_value(batch.out)) << batch.out;
    ASSERT_EQ(batch.out.rfind("[{", 0), 0u) << batch.out;
    EXPECT_EQ(object_keys(batch.out, 1), ok);
}

TEST(Cli, JsonSaysSkippedForAGateThatDidNotRun)
{
    TempDir dir("skipped");
    struct Case {
        std::vector<std::string> flags;
        std::vector<std::string> want;
    };
    const std::vector<Case> cases = {
        {{},
         {"\"validation\":\"skipped\"", "\"random_check_passed\":null",
          "\"machine_validation\":\"skipped\"",
          "\"machine_validated\":false"}},
        {{"--validate"},
         {"\"validation\":\"equivalent\"", "\"random_check_passed\":true",
          "\"machine_validation\":\"equivalent\"",
          "\"machine_validated\":true"}},
        {{"--verify-machine"},
         {"\"validation\":\"skipped\"", "\"random_check_passed\":null",
          "\"machine_validation\":\"equivalent\"",
          "\"machine_validated\":true"}},
    };
    const std::vector<std::string> clock = {"\"total_seconds\":",
                                            "\"saturation_seconds\":",
                                            "\"seconds\":"};
    for (const Case& c : cases) {
        // The second run hits the first's entry: its gates read as the
        // miss's did, and the times, which are the miss's and not its
        // own, read null.
        std::vector<std::string> args = {kVadd, "--json", "--cache-dir",
                                         dir.file("cache")};
        args.insert(args.end(), c.flags.begin(), c.flags.end());
        for (const char* cache : {"miss", "hit"}) {
            const ToolRun run = dioscc(dir, args);
            SCOPED_TRACE((c.flags.empty() ? "no flag" : c.flags[0]) +
                         std::string(", ") + cache);
            ASSERT_EQ(run.code, 0) << run.err;
            EXPECT_TRUE(is_one_json_value(run.out)) << run.out;
            EXPECT_NE(run.out.find("\"cache\":\"" + std::string(cache)),
                      std::string::npos)
                << run.out;
            for (const std::string& want : c.want) {
                EXPECT_NE(run.out.find(want), std::string::npos)
                    << want << "\n"
                    << run.out;
            }
            const bool hit = std::string(cache) == "hit";
            for (const std::string& key : clock) {
                EXPECT_EQ(run.out.find(key + "null") != std::string::npos,
                          hit)
                    << key << "\n"
                    << run.out;
            }
            EXPECT_EQ(run.err.find("time=") == std::string::npos, hit)
                << run.err;
        }
    }
}

TEST(Cli, ServiceMetricsJsonKeepsTheDaemonStatusSpelling)
{
    // benchmark/daemon_workload.cpp reads diosd's status frame by
    // searching for these exact `"name":` spellings.
    service::ServiceMetrics m;
    m.frames_rejected = 3;
    m.queue_wait_seconds = 0.25;
    const std::string json = m.to_json();
    EXPECT_TRUE(is_one_json_value(json)) << json;
    for (const char* needle :
         {"\"frames_rejected\":3", "\"memory_hits\":", "\"disk_hits\":",
          "\"misses\":", "\"evictions\":",
          "\"queue_wait_seconds\":0.25"}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
}

/** A report in which every field holds a non-default value. */
CompileReport
distinct_report()
{
    CompileReport r;
    r.lift_seconds = 0.5;
    r.saturation_seconds = 1.5;
    r.extract_seconds = 2.5;
    r.backend_seconds = 3.5;
    r.total_seconds = 4.5;
    r.spec_elements = 11;
    r.spec_dag_nodes = 12;
    r.egraph_nodes = 13;
    r.egraph_classes = 14;
    r.stop_reason = StopReason::kNodeLimit;
    r.runner_iterations = 15;
    r.rule_stats = {{"rule-a", 16, 17, 0.25, 0.125, 1, 2}};
    r.strategy_name = "phased";
    strategy::PhaseReport phase;
    phase.name = "grow";
    phase.runs = 2;
    phase.runner.rule_stats = r.rule_stats;
    r.strategy_phases = {phase};
    r.strategy_goal_satisfied = true;
    r.extracted_cost = 18.75;
    r.lvn = {19, 20, 21, 22};
    r.memory_proxy_bytes = 23;
    r.validation = Verdict::kNotEquivalent;
    r.validated = true;
    r.random_check_passed = false;
    r.random_checked = true;
    r.machine_validation = Verdict::kEquivalent;
    r.machine_validated = true;
    r.machine_witness = "a = \"1\"";
    r.fallback_level = 2;
    r.attempts = {{0, "first\nline", FailureClass::kInternal, 0.75},
                  {2, "", FailureClass::kNone, 0.375}};
    r.error = "first\nline";
    return r;
}

TEST(ReportFields, EveryRowTravelsAndPrintsOnce)
{
    const CompileReport r = distinct_report();
    const CompileReport none;
    service::CachedEntry entry;
    entry.report = r;
    const service::CachedEntry back =
        service::decode_entry(service::encode_entry(entry));

    JsonWriter w;
    w.open('{');
    write_report_json(w, r);
    const std::string json = w.close('}').str();
    ASSERT_TRUE(is_one_json_value(json)) << json;
    const Keys keys = object_keys(json, 0);

    std::size_t json_rows = 0;
    for (const ReportField& f : report_fields()) {
        SCOPED_TRACE(f.name);
        // Every row is set: it reads differently from a default report.
        JsonWriter set, unset;
        f.json(set.open('{'), r);
        f.json(unset.open('{'), none);
        EXPECT_NE(set.str(), unset.str());
        if (f.persisted()) {
            SexprWriter want, got;
            f.encode(r, want);
            f.encode(back.report, got);
            EXPECT_EQ(got.str(), want.str());
        }
        // A report served from a cache prints its clock rows null.
        JsonWriter cached;
        f.json(cached.open('{'), r, true);
        EXPECT_EQ(cached.str().find("null") != std::string::npos,
                  (f.where & kClock) != 0)
            << cached.str();
        const bool in_json = (f.where & kJson) != 0;
        json_rows += in_json;
        EXPECT_EQ(std::count(keys.begin(), keys.end(), f.name),
                  in_json ? 1 : 0);
    }
    EXPECT_EQ(keys.size(), json_rows);

    // Member by member, so two rows that swapped members fail too.
    // Wall-clock time does not travel: an entry is a function of the
    // kernel and its budgets.
    const CompileReport& b = back.report;
    EXPECT_EQ(b.lift_seconds, none.lift_seconds);
    EXPECT_EQ(b.saturation_seconds, none.saturation_seconds);
    EXPECT_EQ(b.extract_seconds, none.extract_seconds);
    EXPECT_EQ(b.backend_seconds, none.backend_seconds);
    EXPECT_EQ(b.total_seconds, none.total_seconds);
    EXPECT_EQ(b.spec_elements, r.spec_elements);
    EXPECT_EQ(b.spec_dag_nodes, r.spec_dag_nodes);
    EXPECT_EQ(b.egraph_nodes, r.egraph_nodes);
    EXPECT_EQ(b.egraph_classes, r.egraph_classes);
    EXPECT_EQ(b.stop_reason, r.stop_reason);
    EXPECT_EQ(b.runner_iterations, r.runner_iterations);
    EXPECT_EQ(b.strategy_name, r.strategy_name);
    EXPECT_EQ(b.strategy_goal_satisfied, r.strategy_goal_satisfied);
    EXPECT_EQ(b.extracted_cost, r.extracted_cost);
    EXPECT_EQ(b.lvn.input_instrs, r.lvn.input_instrs);
    EXPECT_EQ(b.lvn.value_numbered, r.lvn.value_numbered);
    EXPECT_EQ(b.lvn.dead_removed, r.lvn.dead_removed);
    EXPECT_EQ(b.lvn.output_instrs, r.lvn.output_instrs);
    EXPECT_EQ(b.memory_proxy_bytes, r.memory_proxy_bytes);
    EXPECT_EQ(b.validation, r.validation);
    EXPECT_EQ(b.validated, r.validated);
    EXPECT_EQ(b.random_check_passed, r.random_check_passed);
    EXPECT_EQ(b.random_checked, r.random_checked);
    EXPECT_EQ(b.machine_validation, r.machine_validation);
    EXPECT_EQ(b.machine_validated, r.machine_validated);
    EXPECT_EQ(b.machine_witness, r.machine_witness);
    EXPECT_EQ(b.fallback_level, r.fallback_level);
    EXPECT_EQ(b.error, r.error);
    ASSERT_EQ(b.attempts.size(), r.attempts.size());
    for (std::size_t i = 0; i < r.attempts.size(); ++i) {
        EXPECT_EQ(b.attempts[i].level, r.attempts[i].level);
        EXPECT_EQ(b.attempts[i].seconds, 0.0);
        EXPECT_EQ(b.attempts[i].error, r.attempts[i].error);
    }
    EXPECT_EQ(back.fallback_level, r.fallback_level);
    // The run's telemetry stays local.
    EXPECT_TRUE(b.rule_stats.empty());
    EXPECT_TRUE(b.strategy_phases.empty());

    // A failed compile prints only its rows.
    JsonWriter failed;
    failed.open('{');
    write_report_json(failed, r, kFailedJson);
    EXPECT_EQ(object_keys(failed.close('}').str(), 0),
              (Keys{"fallback_level", "error"}));
}

}  // namespace
