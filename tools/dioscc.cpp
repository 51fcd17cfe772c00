/**
 * @file
 * dioscc — the Diospyros command-line compiler: a kernel written in the
 * textual input language (src/scalar/parse.h) in, vectorized code and a
 * compile report out.
 *
 *   dioscc <kernel.ksp> [flags]
 *   dioscc --batch MANIFEST [flags]
 *
 * `dioscc --help` lists every flag. The list is generated from the flag
 * table below, which also records the modes that honour each flag; a
 * flag the chosen mode cannot honour is rejected with exit 2.
 *
 * A single kernel is a batch of one. Each kernel takes one route and
 * yields a CompileResult:
 *   --strict  compile_kernel under the --fault scope: no degradation
 *             ladder, the first failure is final;
 *   --remote  a diosd daemon (DESIGN.md §5j), retried under backoff; when
 *             the daemon stays unreachable, the local route below
 *             ("cache":"local-fallback" in --json);
 *   local     one in-process CompileService: the degradation ladder,
 *             plus the persistent cache with --cache-dir.
 * The bytes of a successful result never depend on the route.
 *
 * Exit codes: 0 ok; 1 the kernel failed to compile or --run disagreed
 * with the reference; 2 user error (bad flags, unreadable or unparsable
 * kernel). Under --batch, compile failures are reported in-band and only
 * a user error makes the exit code non-zero.
 */
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/lint_rules.h"
#include "compiler/driver.h"
#include "compiler/option_fields.h"
#include "daemon/client.h"
#include "egraph/runner.h"
#include "kernels/kernels.h"
#include "machine/emit_c.h"
#include "rules/rules.h"
#include "scalar/lower.h"
#include "scalar/parse.h"
#include "service/compile_service.h"
#include "strategy/parse.h"
#include "strategy/strategy.h"
#include "support/faults.h"
#include "support/json.h"
#include "support/numeric.h"

using namespace diospyros;

namespace {

/**
 * The modes dioscc runs in, one bit each. A compile mode is a route
 * (strict, remote, local) for one kernel or for a --batch manifest; a
 * route's batch bit is its single-kernel bit shifted left by 3.
 */
enum Mode : unsigned {
    kStrictOne = 1u << 0,
    kRemoteOne = 1u << 1,
    kLocalOne = 1u << 2,
    kStrictBatch = 1u << 3,
    kRemoteBatch = 1u << 4,
    kLocalBatch = 1u << 5,
    kLint = 1u << 6,
    kListFaults = 1u << 7,
};
constexpr unsigned kOne = kStrictOne | kRemoteOne | kLocalOne;
constexpr unsigned kBatch = kStrictBatch | kRemoteBatch | kLocalBatch;
constexpr unsigned kCompile = kOne | kBatch;
constexpr unsigned kStrict = kStrictOne | kStrictBatch;
constexpr unsigned kRemote = kRemoteOne | kRemoteBatch;
constexpr unsigned kLocal = kLocalOne | kLocalBatch;

/** Indexed by the Mode bit's position. */
const char* const kModeNames[] = {
    "--strict",         "--remote",         "a local compile",
    "--batch --strict", "--batch --remote", "--batch",
    "--lint-rules/--lint-strategies",       "--list-faults",
};

struct Cli {
    unsigned mode = kLocalOne;
    std::string path;
    std::string batch_path;
    CompilerOptions compiler;
    bool emit_c = false;
    bool emit_native = false;
    bool emit_asm = false;
    bool emit_spec = false;
    std::string dot_path;
    bool json = false;
    bool run = false;
    std::uint64_t seed = 1;
    bool strict = false;
    bool lint_rules = false;
    bool lint_strategies = false;
    bool list_faults = false;
    int jobs = 1;
    std::string cache_dir;
    std::uintmax_t cache_disk_budget = 0;
    std::string remote_socket;
    /** Unset: interactive for one kernel, batch for a manifest. */
    std::optional<service::Priority> priority;
    double submit_timeout_seconds = -1.0;  ///< < 0: block
};

/** One flag occurrence: its spelling (for messages) and its value. */
struct Arg {
    std::string flag;
    std::string value;

    long long pos() const { return require_positive_integer(flag, value); }
    long long nonneg() const
    {
        return require_nonnegative_integer(flag, value);
    }

    /**
     * Parses the value (an integer for a kInt field) as the option_fields()
     * entry `name`, range-checks it there and sets it in `o`.
     */
    void
    set(CompilerOptions& o, std::string_view name) const
    {
        const auto fields = option_fields();
        const OptionField& f = *std::find_if(
            fields.begin(), fields.end(),
            [&](const OptionField& x) { return x.name == name; });
        const bool integer = f.kind == OptionKind::kInt;
        const std::optional<double> v = parse_number(value);
        DIOS_CHECK(v && (!integer || parse_integer(value)),
                   flag + " expects " + (integer ? "an integer" : "a number") +
                       ", got '" + value + "'");
        f.check(*v, flag, value);
        f.access.set(o, 0, *v);
    }
};

struct Flag {
    const char* name;
    const char* metavar;  ///< nullptr: a switch that takes no value
    unsigned modes;       ///< the Mode bits that honour this flag
    const char* help;
    void (*apply)(Cli&, Arg);
};

const Flag kFlags[] = {
    {"--width", "N", kCompile | kLint,
     "target preset for N lanes: 2, 4, 8 or 16 (default 4)",
     [](Cli& c, Arg a) {
         // The whole preset, cost table included: the target the benches
         // measure. --recip may come before or after --width.
         const bool recip = c.compiler.target.has_reciprocal;
         a.set(c.compiler, "width");
         c.compiler.target =
             TargetSpec::for_width(c.compiler.target.vector_width);
         c.compiler.target.has_reciprocal |= recip;
     }},
    {"--iters", "N", kCompile, "saturation iteration budget (default 12)",
     [](Cli& c, Arg a) { a.set(c.compiler, "iters"); }},
    {"--nodes", "N", kCompile, "e-graph node limit (default 300000)",
     [](Cli& c, Arg a) { a.set(c.compiler, "nodes"); }},
    {"--timeout", "S", kCompile, "saturation time budget (default 20 s)",
     [](Cli& c, Arg a) { a.set(c.compiler, "timeout"); }},
    {"--deadline", "S", kCompile, "time budget for the whole compile",
     [](Cli& c, Arg a) { a.set(c.compiler, "deadline"); }},
    {"--memory", "BYTES", kCompile, "e-graph memory ceiling in bytes",
     [](Cli& c, Arg a) { a.set(c.compiler, "memory"); }},
    {"--no-vector", nullptr, kCompile, "disable the vector rewrite rules",
     [](Cli& c, Arg) { c.compiler.rules.enable_vector_rules = false; }},
    {"--ac", nullptr, kCompile, "enable full associativity/commutativity",
     [](Cli& c, Arg) { c.compiler.rules.full_ac = true; }},
    {"--recip", nullptr, kCompile, "the target has a fast reciprocal",
     [](Cli& c, Arg) { c.compiler.target.has_reciprocal = true; }},
    {"--validate", nullptr, kCompile, "translation validation + random check",
     [](Cli& c, Arg) { c.compiler.validate = c.compiler.random_check = true; }},
    {"--verify-ir", nullptr, kCompile, "run the e-graph and VIR gates",
     [](Cli& c, Arg) { c.compiler.verify_ir = true; }},
    {"--verify-machine", nullptr, kCompile, "run the machine-code gates",
     [](Cli& c, Arg) { c.compiler.verify_machine = true; }},
    {"--strategy", "NAME|FILE", kCompile, "built-in name or strategy file",
     [](Cli& c, Arg a) {
         analysis::DiagEngine diags;
         auto strat = strategy::load_strategy(a.value, diags);
         DIOS_CHECK(strat.has_value(),
                    a.flag + " " + a.value + ":\n" + diags.render_text());
         c.compiler.strategy = std::move(*strat);
     }},
    {"--fault", "SPEC", kStrict | kLocal, "arm a fault: site[:nth[:count|*]]",
     [](Cli& c, Arg a) { c.compiler.fault_specs.push_back(a.value); }},
    {"--emit-c", nullptr, kOne, "print the generated C intrinsics",
     [](Cli& c, Arg) { c.emit_c = true; }},
    {"--emit-native", nullptr, kOne, "print a host-compilable C kernel",
     [](Cli& c, Arg) { c.emit_native = true; }},
    {"--emit-asm", nullptr, kOne, "print the scheduled DSP assembly",
     [](Cli& c, Arg) { c.emit_asm = true; }},
    {"--emit-spec", nullptr, kOne, "print the lifted specification",
     [](Cli& c, Arg) { c.emit_spec = true; }},
    {"--emit-dot", "FILE", kOne, "write the saturated e-graph as Graphviz",
     [](Cli& c, Arg a) { c.dot_path = a.value; }},
    {"--run", nullptr, kOne, "simulate on random inputs vs the baselines",
     [](Cli& c, Arg) { c.run = true; }},
    {"--seed", "N", kOne | kRemote, "seed: --run inputs, retry jitter",
     [](Cli& c, Arg a) { c.seed = a.nonneg(); }},
    {"--json", nullptr, kCompile, "JSON report (an array under --batch)",
     [](Cli& c, Arg) { c.json = true; }},
    {"--batch", "MANIFEST", kBatch, "compile each kernel path in MANIFEST",
     [](Cli& c, Arg a) { c.batch_path = a.value; }},
    {"--jobs", "N", kRemote | kLocal, "worker threads, 1 to 1024 (default 1)",
     [](Cli& c, Arg a) {
         DIOS_CHECK(a.pos() <= 1024, a.flag + " must be at most 1024");
         c.jobs = static_cast<int>(a.pos());
     }},
    {"--cache-dir", "D", kRemote | kLocal, "persistent compile cache",
     [](Cli& c, Arg a) { c.cache_dir = a.value; }},
    {"--cache-disk-budget", "BYTES", kRemote | kLocal, "disk cache size cap",
     [](Cli& c, Arg a) { c.cache_disk_budget = a.nonneg(); }},
    {"--io-retries", "N", kRemote | kLocal, "cache-store I/O retries (2)",
     [](Cli& c, Arg a) { a.set(c.compiler, "io-retries"); }},
    {"--remote", "SOCK", kRemote, "compile via the diosd listening at SOCK",
     [](Cli& c, Arg a) { c.remote_socket = a.value; }},
    {"--priority", "P", kRemote, "interactive | batch | background",
     [](Cli& c, Arg a) { c.priority = service::parse_priority(a.value); }},
    {"--submit-timeout-ms", "N", kRemote, "daemon queue wait before a shed",
     [](Cli& c, Arg a) { c.submit_timeout_seconds = a.nonneg() / 1000.0; }},
    {"--strict", nullptr, kStrict, "no degradation ladder",
     [](Cli& c, Arg) { c.strict = true; }},
    {"--lint-rules", nullptr, kLint, "prove every rewrite rule sound",
     [](Cli& c, Arg) { c.lint_rules = true; }},
    {"--lint-strategies", nullptr, kLint, "check every built-in strategy",
     [](Cli& c, Arg) { c.lint_strategies = true; }},
    {"--list-faults", nullptr, kListFaults, "print the fault-site catalog",
     [](Cli& c, Arg) { c.list_faults = true; }},
};

/** Prints the usage and flag table to `out` and exits with `code`. */
[[noreturn]] void
usage(std::FILE* out = stderr, int code = 2)
{
    std::fprintf(out, "usage: dioscc <kernel.ksp> [flags]\n"
                      "       dioscc --batch MANIFEST [flags]\n"
                      "       dioscc --lint-rules | --lint-strategies "
                      "[--width N]\n"
                      "       dioscc --list-faults\n\nflags:\n");
    for (const Flag& f : kFlags) {
        const std::string spelled =
            std::string(f.name) + " " + (f.metavar ? f.metavar : "");
        std::fprintf(out, "  %-30s %s\n", spelled.c_str(), f.help);
    }
    std::exit(code);
}

Cli
parse_cli(int argc, char** argv)
{
    Cli cli;
    cli.compiler.limits = RunnerLimits{.node_limit = 300'000,
                                       .iter_limit = 12,
                                       .time_limit_seconds = 20.0};
    std::vector<const Flag*> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            usage(stdout, 0);
        }
        if (arg.empty() || arg[0] != '-') {
            if (!cli.path.empty()) {
                usage();
            }
            cli.path = arg;
            continue;
        }
        const Flag* flag =
            std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag& f) { return arg == f.name; });
        if (flag == std::end(kFlags)) {
            std::fprintf(stderr, "dioscc: error: unknown flag '%s'\n",
                         arg.c_str());
            usage();
        }
        if (flag->metavar != nullptr && i + 1 >= argc) {
            usage();
        }
        flag->apply(cli, Arg{arg, flag->metavar ? argv[++i] : ""});
        seen.push_back(flag);
    }

    if (cli.list_faults) {
        cli.mode = kListFaults;
    } else if (cli.lint_rules || cli.lint_strategies) {
        cli.mode = kLint;
    } else {
        cli.mode = cli.strict                   ? kStrictOne
                   : !cli.remote_socket.empty() ? kRemoteOne
                                                : kLocalOne;
        if (!cli.batch_path.empty()) {
            cli.mode <<= 3;
        }
    }
    for (const Flag* flag : seen) {
        DIOS_CHECK((flag->modes & cli.mode) != 0,
                   std::string(flag->name) + " does not apply to " +
                       kModeNames[std::countr_zero(cli.mode)]);
    }
    if (cli.path.empty() == ((cli.mode & kOne) != 0)) {
        usage();
    }
    return cli;
}

/** Reads a --batch manifest: one kernel path per line, '#' comments. */
std::vector<std::string>
read_manifest(const std::string& path)
{
    std::ifstream in(path);
    DIOS_CHECK(in.good(), "cannot open batch manifest '" + path + "'");
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line)) {
        const auto begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos || line[begin] == '#') {
            continue;
        }
        const auto end = line.find_last_not_of(" \t\r");
        out.push_back(line.substr(begin, end - begin + 1));
    }
    DIOS_CHECK(!out.empty(),
               "batch manifest '" + path + "' lists no kernels");
    return out;
}

// A Ctrl-C or SIGTERM mid-batch sheds the queue and still flushes ONE
// well-formed --json document.
std::atomic<bool> g_interrupted{false};

void
handle_stop_signal(int)
{
    g_interrupted.store(true);
}

CompileResult
failure(const std::string& error, FailureClass failure_class)
{
    CompileResult r;
    r.error = error;
    r.failure_class = failure_class;
    r.user_error = failure_class == FailureClass::kUser;
    return r;
}

/** One kernel of the input list, and what its route made of it. */
struct Job {
    std::string name;  ///< the kernel's name, or its path if unreadable
    std::string text;
    std::optional<scalar::Kernel> kernel;  ///< disengaged: unreadable
    std::optional<service::Ticket> ticket;  ///< local route, once queued
    CompileResult result;
    std::string cache = "none";
    double queue_wait_ms = 0.0;
    std::uint64_t retry_after_ms = 0;
};

Job
read_job(const std::string& path)
{
    Job job;
    job.name = path;
    try {
        std::ifstream file(path, std::ios::binary);
        DIOS_CHECK(file.good(), "cannot open kernel file: " + path);
        std::ostringstream ss;
        ss << file.rdbuf();
        job.text = ss.str();
        job.kernel = scalar::parse_kernel(job.text);
        job.name = job.kernel->name;
    } catch (const UserError& e) {
        job.result = failure(e.what(), FailureClass::kUser);
    }
    return job;
}

/** The three routes of the file header, sharing one service and client. */
class Router {
  public:
    Router(const Cli& cli, std::size_t jobs) : cli_(cli)
    {
        if (cli.strict) {
            return;
        }
        service::CompileService::Options sopts;
        sopts.jobs = cli.jobs;
        sopts.cache_dir = cli.cache_dir;
        sopts.disk_budget_bytes = cli.cache_disk_budget;
        sopts.queue_capacity = jobs + 1;  // submit never blocks
        service_.emplace(sopts);
        if (!cli.remote_socket.empty()) {
            client_.emplace(daemon::RemoteOptions{
                .socket_path = cli.remote_socket, .jitter_seed = cli.seed});
        }
    }

    /** Queues `job` on the local route now, so --jobs workers overlap. */
    void
    submit(Job& job)
    {
        job.ticket = service_->submit(*job.kernel, cli_.compiler);
    }

    void
    compile(Job& job)
    {
        if (!job.kernel) {
            return;  // read_job recorded the user error
        }
        if (g_interrupted.load() && !job.ticket) {
            job.result = failure("interrupted by signal", FailureClass::kNone);
        } else if (cli_.strict) {
            strict(job);
        } else if (!client_ || !remote(job)) {
            local(job);
        }
    }

    /** The service counters, with the remote client's folded in. */
    std::string
    metrics_json() const
    {
        service::ServiceMetrics m = service_->metrics();
        if (client_) {
            const daemon::ClientCounters& c = client_->counters();
            m.remote_requests = c.remote_requests;
            m.remote_retries = c.remote_retries;
            m.remote_fallback_local = c.remote_fallback_local;
        }
        return m.to_json();
    }

  private:
    void
    strict(Job& job) const
    {
        try {
            std::vector<faults::FaultSpec> specs;
            for (const std::string& spec : cli_.compiler.fault_specs) {
                specs.push_back(faults::parse_spec(spec));
            }
            const faults::ScopedFaults scope(std::move(specs));
            job.result.compiled = compile_kernel(*job.kernel, cli_.compiler);
            job.result.ok = true;
        } catch (const UserError& e) {
            job.result = failure(e.what(), FailureClass::kUser);
        } catch (const std::exception& e) {
            job.result = failure(e.what(), FailureClass::kInternal);
        }
    }

    /** False when the daemon stayed unreachable. */
    bool
    remote(Job& job)
    {
        const service::Priority priority = cli_.priority.value_or(
            (cli_.mode & kBatch) != 0 ? service::Priority::kBatch
                                      : service::Priority::kInteractive);
        const std::optional<daemon::CompileResponse> resp =
            client_->compile({job.name, job.text, cli_.compiler, priority,
                              cli_.submit_timeout_seconds});
        if (!resp) {
            return false;
        }
        job.cache = "remote";
        job.retry_after_ms = resp->retry_after_ms;
        if (resp->status != daemon::ResponseStatus::kOk) {
            job.result = failure(resp->error, resp->failure_class);
            return true;
        }
        job.result.ok = true;
        job.result.compiled =
            service::compiled_from_entry(*job.kernel, *resp->entry);
        job.result.fallback_level = job.result.report().fallback_level;
        return true;
    }

    void
    local(Job& job)
    {
        if (!job.ticket) {
            submit(job);
        }
        const service::Ticket& ticket = *job.ticket;
        // Poll so a stop signal can shed the queue: every queued ticket
        // then resolves as Overloaded.
        while (ticket.future.wait_for(std::chrono::milliseconds(100)) !=
               std::future_status::ready) {
            if (g_interrupted.load() && !drained_) {
                std::fprintf(stderr,
                             "dioscc: interrupted: shedding queued kernels\n");
                service_->drain(service::DrainMode::kShed);
                drained_ = true;
            }
        }
        job.result = ticket.get();
        job.cache = client_ ? "local-fallback"
                            : service::cache_outcome_json_name(
                                  ticket.outcome());
        job.queue_wait_ms = ticket.queue_wait_seconds() * 1000.0;
        job.retry_after_ms = ticket.retry_after_ms();
    }

    const Cli& cli_;
    std::optional<service::CompileService> service_;
    std::optional<daemon::RemoteClient> client_;
    bool drained_ = false;
};

/** Prints a per-rule e-matching profile array and returns its sum. */
RuleStats
print_rule_stats(const std::vector<RuleStats>& stats)
{
    RuleStats t;
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const RuleStats& s = stats[i];
        t += s;
        std::printf("%s{\"rule\":\"%s\",\"matches\":%zu,"
                    "\"applications\":%zu,\"search_seconds\":%.6f,"
                    "\"apply_seconds\":%.6f,\"times_banned\":%d,"
                    "\"banned_until\":%d}",
                    i == 0 ? "[" : ",", json_escape(s.name).c_str(),
                    s.matches, s.applications, s.search_seconds,
                    s.apply_seconds, s.times_banned, s.banned_until);
    }
    std::printf(stats.empty() ? "[]" : "]");
    return t;
}

/** One --json report object (no trailing newline). */
void
print_json(const Job& o)
{
    std::printf("{\"kernel\":\"%s\",\"ok\":%s,\"cache\":\"%s\","
                "\"queue_wait_ms\":%.3f,",
                json_escape(o.name).c_str(), o.result.ok ? "true" : "false",
                o.cache.c_str(), o.queue_wait_ms);
    if (!o.result.ok) {
        std::printf("\"retry_after_ms\":%llu,\"user_error\":%s,"
                    "\"fallback_level\":-1,\"error\":\"%s\"}",
                    static_cast<unsigned long long>(o.retry_after_ms),
                    o.result.user_error ? "true" : "false",
                    json_escape(o.result.error).c_str());
        return;
    }
    const CompileReport& r = o.result.report();
    std::printf(
        "\"total_seconds\":%.6f,"
        "\"saturation_seconds\":%.6f,\"egraph_nodes\":%zu,"
        "\"egraph_classes\":%zu,\"iterations\":%zu,"
        "\"stop\":\"%s\",\"extracted_cost\":%.2f,"
        "\"spec_elements\":%zu,\"memory_proxy_bytes\":%zu,"
        "\"lvn_removed\":%zu,\"fallback_level\":%d,"
        "\"fallback\":\"%s\",\"error\":\"%s\","
        "\"validation\":\"%s\",\"random_check_passed\":%s,"
        "\"machine_validation\":\"%s\",\"machine_validated\":%s,"
        "\"machine_witness\":\"%s\",\"attempts\":[",
        r.total_seconds, r.saturation_seconds, r.egraph_nodes,
        r.egraph_classes, r.runner_iterations,
        stop_reason_name(r.stop_reason), r.extracted_cost, r.spec_elements,
        r.memory_proxy_bytes, r.lvn.value_numbered + r.lvn.dead_removed,
        r.fallback_level, fallback_level_name(r.fallback_level),
        json_escape(r.error).c_str(), verdict_name(r.validation),
        r.random_check_passed ? "true" : "false",
        verdict_name(r.machine_validation),
        r.machine_validated ? "true" : "false",
        json_escape(r.machine_witness).c_str());
    for (std::size_t i = 0; i < r.attempts.size(); ++i) {
        const AttemptDiagnostic& a = r.attempts[i];
        std::printf("%s{\"level\":%d,\"rung\":\"%s\",\"seconds\":%.6f,"
                    "\"error\":\"%s\"}",
                    i == 0 ? "" : ",", a.level,
                    fallback_level_name(a.level), a.seconds,
                    json_escape(a.error).c_str());
    }
    std::printf("],\"rule_stats\":");
    const RuleStats totals = print_rule_stats(r.rule_stats);
    std::printf(",\"ematch_matches\":%zu,\"ematch_search_seconds\":%.6f,"
                "\"ematch_apply_seconds\":%.6f",
                totals.matches, totals.search_seconds, totals.apply_seconds);
    // Strategy runs: the schedule's identity and per-phase telemetry.
    std::printf(",\"strategy\":\"%s\",\"goal_satisfied\":%s,\"phases\":[",
                json_escape(r.strategy_name).c_str(),
                r.strategy_goal_satisfied ? "true" : "false");
    for (std::size_t i = 0; i < r.strategy_phases.size(); ++i) {
        const strategy::PhaseReport& p = r.strategy_phases[i];
        std::printf(
            "%s{\"phase\":\"%s\",\"runs\":%d,\"skipped\":%s,"
            "\"stop\":\"%s\",\"iterations\":%zu,\"nodes\":%zu,"
            "\"classes\":%zu,\"sketch_checked\":%s,\"sketch_satisfied\":%s,"
            "\"seconds\":%.6f,\"rule_stats\":",
            i == 0 ? "" : ",", json_escape(p.name).c_str(), p.runs,
            p.skipped ? "true" : "false",
            p.skipped ? "skipped" : stop_reason_name(p.runner.stop_reason),
            p.runner.iterations.size(), p.runner.final_nodes,
            p.runner.final_classes, p.sketch_checked ? "true" : "false",
            p.sketch_satisfied ? "true" : "false", p.seconds);
        const RuleStats phase = print_rule_stats(p.runner.rule_stats);
        std::printf(",\"matches\":%zu,\"applications\":%zu}", phase.matches,
                    phase.applications);
    }
    std::printf("]}");
}

/** Reports one job: commentary on `info`, failures on stderr. */
void
print_outcome(const Job& job, std::FILE* info)
{
    if (!job.result.ok) {
        std::fprintf(stderr, "dioscc: error: %s: %s\n", job.name.c_str(),
                     job.result.error.c_str());
        return;
    }
    const CompileReport& r = job.result.report();
    std::fprintf(info, "; [%s] %s\n", job.cache.c_str(),
                 report_row(job.name, r).c_str());
    if (r.fallback_level > 0) {
        std::fprintf(info, "; DEGRADED to rung %d (%s) after: %s\n",
                     r.fallback_level, fallback_level_name(r.fallback_level),
                     r.error.c_str());
    }
    if (r.validation != Verdict::kUnknown) {
        std::fprintf(info,
                     "; translation validation: %s; random check: %s\n",
                     verdict_name(r.validation),
                     r.random_check_passed ? "passed" : "FAILED");
    }
    if (r.machine_validated) {
        std::fprintf(info, "; machine-level validation: %s%s%s\n",
                     verdict_name(r.machine_validation),
                     r.machine_witness.empty() ? "" : "; ",
                     r.machine_witness.c_str());
    }
}

/** The single-kernel post-steps: --emit-dot, --emit-*, --run. */
int
post_steps(const Cli& cli, const CompiledKernel& compiled,
           std::FILE* info)
{
    const TargetSpec& target = cli.compiler.target;
    if (!cli.dot_path.empty()) {
        // Re-run saturation on the padded spec to obtain the e-graph (the
        // compiled artifact does not retain it), then dump Graphviz.
        CompilerOptions opts = cli.compiler;
        opts.sync();
        EGraph graph;
        const ClassId root = graph.add_term(compiled.padded_spec);
        graph.rebuild();
        CompileReport report;
        saturate(graph, root, opts, Deadline::unlimited(), report);
        std::ofstream out(cli.dot_path);
        out << graph.to_dot();
        std::fprintf(info,
                     "; wrote e-graph (%zu nodes, %zu classes) to %s\n",
                     graph.num_nodes(), graph.num_classes(),
                     cli.dot_path.c_str());
    }
    if (cli.emit_spec) {
        std::printf("\n; lifted specification\n%s\n",
                    Term::to_string(compiled.padded_spec).c_str());
    }
    if (cli.emit_c) {
        std::printf("\n%s", compiled.c_source.c_str());
    }
    if (cli.emit_native) {
        EmitCOptions copts;
        copts.symbol = native_symbol_for(compiled.kernel.name);
        copts.vector_width = target.vector_width;
        copts.memory_words = compiled.layout.memory_words();
        copts.pool = compiled.layout.pool();
        copts.pool_base = compiled.layout.pool_base_words();
        std::printf("\n%s",
                    emit_c_kernel(compiled.machine, copts).c_str());
    }
    if (cli.emit_asm) {
        std::printf("\n; scheduled DSP assembly\n%s",
                    disassemble(compiled.machine, target.vector_width)
                        .c_str());
    }
    if (!cli.run) {
        return 0;
    }
    const scalar::Kernel& kernel = compiled.kernel;
    const scalar::BufferMap inputs = kernels::make_inputs(kernel, cli.seed);
    const auto run = compiled.run(inputs, target);
    const auto naive = scalar::run_baseline(
        kernel, inputs, scalar::LowerMode::kNaiveParametric, target);
    const auto fixed = scalar::run_baseline(
        kernel, inputs, scalar::LowerMode::kNaiveFixed, target);
    const scalar::BufferMap want = scalar::run_reference(kernel, inputs);
    // Shape-check before comparing so a mis-sized simulated buffer is
    // reported, not read out of bounds.
    const OutputComparison cmp = compare_outputs(run.outputs, want);
    if (!cmp.shapes_ok()) {
        std::fprintf(stderr,
                     "dioscc: error: simulated outputs do not match the "
                     "kernel manifest: %s\n",
                     cmp.shape_error.c_str());
        return 1;
    }
    std::fprintf(info, "\n; simulated cycles\n");
    std::fprintf(info, ";   naive (parametric) : %llu\n",
                 static_cast<unsigned long long>(naive.result.cycles));
    std::fprintf(info, ";   naive (fixed size) : %llu\n",
                 static_cast<unsigned long long>(fixed.result.cycles));
    std::fprintf(info, ";   diospyros          : %llu (%.2fx over fixed)\n",
                 static_cast<unsigned long long>(run.result.cycles),
                 static_cast<double>(fixed.result.cycles) /
                     static_cast<double>(run.result.cycles));
    std::fprintf(info, ";   max |error| vs reference: %g\n",
                 cmp.max_abs_error);
    return cmp.max_abs_error > 1e-2f ? 1 : 0;
}

/**
 * --lint-rules driver: prove every registered rewrite rule sound at the
 * CLI's vector width. Returns non-zero if any rule is unsound. Every
 * optional rule family is on, so one pass covers the whole inventory.
 */
int
run_lint_rules(const Cli& cli)
{
    RuleConfig config(cli.compiler.target.vector_width);
    config.enable_scalar_rules = true;
    config.enable_vector_rules = true;
    config.full_ac = true;
    config.target_has_recip = true;
    const std::vector<analysis::RuleLintResult> results =
        analysis::lint_rules(config);
    for (const analysis::RuleLintResult& r : results) {
        const char* status = "sound";
        if (r.verdict == Verdict::kNotEquivalent) {
            status = "UNSOUND";
        } else if (!r.exercised) {
            status = "unexercised";
        } else if (r.random_checked) {
            status = "sound (random)";
        }
        std::printf("%-20s %s%s%s\n", r.rule.c_str(), status,
                    r.detail.empty() ? "" : ": ", r.detail.c_str());
    }
    analysis::DiagEngine diags;
    const bool sound = analysis::lint_to_diags(results, diags);
    if (diags.error_count() > 0 || diags.warning_count() > 0) {
        std::fprintf(stderr, "%s", diags.render_text().c_str());
    }
    std::printf("; linted %zu rules at width %d: %s\n", results.size(),
                config.vector_width, sound ? "all sound" : "UNSOUND");
    return sound ? 0 : 1;
}

/**
 * --lint-strategies driver: every named built-in strategy must (a)
 * resolve all its rule references against the default rule set at the
 * CLI's vector width, and (b) round-trip through its canonical DSL
 * rendering. Returns non-zero on any failure.
 */
int
run_lint_strategies(const Cli& cli)
{
    RuleConfig config(cli.compiler.target.vector_width);
    const std::vector<Rewrite> rules = build_rules(config);

    bool ok = true;
    for (const std::string& name : strategy::builtin_strategy_names()) {
        const auto strat = strategy::builtin_strategy(name);
        std::string problems;

        analysis::DiagEngine resolve_diags;
        strategy::resolve_phase_rules(*strat, rules, resolve_diags);
        if (resolve_diags.has_errors()) {
            problems += resolve_diags.render_text();
        }

        analysis::DiagEngine parse_diags;
        const auto reparsed =
            strategy::parse_strategy(strat->to_string(), parse_diags);
        if (!reparsed) {
            problems += "canonical rendering does not parse:\n" +
                        parse_diags.render_text();
        } else if (!(*reparsed == *strat)) {
            problems +=
                "canonical rendering does not round-trip to an equal "
                "strategy\n";
        }

        if (problems.empty()) {
            std::printf("%-12s ok (%zu phases%s)\n", name.c_str(),
                        strat->phases.size(),
                        strat->goal ? ", goal" : "");
        } else {
            ok = false;
            std::printf("%-12s FAILED\n%s", name.c_str(),
                        problems.c_str());
        }
    }
    std::printf("; linted %zu built-in strategies at width %d: %s\n",
                strategy::builtin_strategy_names().size(),
                config.vector_width, ok ? "all ok" : "FAILED");
    return ok ? 0 : 1;
}


}  // namespace

int
main(int argc, char** argv)
try {
    const Cli cli = parse_cli(argc, argv);
    faults::arm_from_env();
    if (cli.mode == kListFaults) {
        for (const std::string& site : faults::known_sites()) {
            std::printf("%s\n", site.c_str());
        }
        return 0;
    }
    if (cli.mode == kLint) {
        const int rules = cli.lint_rules ? run_lint_rules(cli) : 0;
        const int strategies =
            cli.lint_strategies ? run_lint_strategies(cli) : 0;
        return std::max(rules, strategies);
    }

    const bool batch = (cli.mode & kBatch) != 0;
    if (batch) {
        std::signal(SIGINT, handle_stop_signal);
        std::signal(SIGTERM, handle_stop_signal);
    }
    // With --json, stdout must stay machine-parseable; with --emit-c or
    // --emit-native it must stay C (the ';' commentary is not C).
    std::FILE* info =
        (cli.json || cli.emit_c || cli.emit_native) ? stderr : stdout;

    std::vector<Job> jobs;
    for (const std::string& path :
         batch ? read_manifest(cli.batch_path)
               : std::vector<std::string>{cli.path}) {
        jobs.push_back(read_job(path));
    }
    Router router(cli, jobs.size());
    if ((cli.mode & kLocal) != 0) {
        for (Job& job : jobs) {
            if (job.kernel) {
                router.submit(job);
            }
        }
    }
    bool any_user_error = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        router.compile(jobs[i]);
        print_outcome(jobs[i], info);
        if (cli.json) {
            std::printf("%s", !batch ? "" : i == 0 ? "[" : ",");
            print_json(jobs[i]);
        }
        any_user_error = any_user_error || jobs[i].result.user_error;
    }
    if (cli.json) {
        std::printf(batch ? "]\n" : "\n");
    }
    if (batch) {
        if (!cli.strict) {
            std::fprintf(info, "; service metrics: %s\n",
                         router.metrics_json().c_str());
        }
        return any_user_error ? 2 : 0;
    }
    const CompileResult& result = jobs.front().result;
    if (!result.ok) {
        return result.user_error ? 2 : 1;
    }
    return post_steps(cli, *result.compiled, info);
} catch (const UserError& e) {
    std::fprintf(stderr, "dioscc: error: %s\n", e.what());
    return 2;
} catch (const std::exception& e) {
    std::fprintf(stderr, "dioscc: error: %s\n", e.what());
    return 1;
}
