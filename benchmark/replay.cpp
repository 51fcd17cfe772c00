/**
 * @file
 * The traced run. Each compile is replayed as the sequence of public
 * calls compiler/driver.cpp makes in a release build (gates off):
 *
 *   parse → lift + pad → add_term/rebuild + build_rules →
 *   Runner::run or run_strategy → Extractor → lower_term → run_lvn →
 *   CompiledLayout::make + emit_machine → to_c_intrinsics
 *
 * with a span around each call. The result must be byte-identical to
 * what compile_kernel_resilient produces for the same case, which runs
 * without spans right next to the replay; the two times give the tracing
 * overhead. The gates off the release path (e-graph audit, VIR and
 * machine verifiers, M009, term-level validation) and the cache and wire
 * layers are timed afterwards on the finished artifacts, so they cannot
 * change the result. Spans stay in memory until the run ends, then go to
 * a Chrome trace-event file that opens in Perfetto.
 *
 * Per-layer times are self times (a span's duration minus its
 * children's), summed over one replay of the workload's cases.
 */
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/audit_egraph.h"
#include "analysis/verify_machine.h"
#include "analysis/verify_vir.h"
#include "bench.h"
#include "daemon/frame.h"
#include "daemon/protocol.h"
#include "egraph/extract.h"
#include "machine/emit_c.h"
#include "scalar/parse.h"
#include "service/cache_key.h"
#include "service/disk_cache.h"
#include "service/serialize.h"
#include "vir/cprint.h"

namespace diospyros::benchmark {

namespace {

/** One timed interval of the traced run. */
struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span; -1 for a root
    int request = 0;  ///< the case (compile) the span belongs to
    double start_us = 0.0;
    double end_us = 0.0;
};

/** Records nested spans in memory; single-threaded. */
class Tracer {
  public:
    /** Runs `fn` inside a span named `name`, nested in the open one. */
    template <typename Fn>
    void
    span(const char* name, int request, Fn&& fn)
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, open_.empty() ? -1 : open_.back(), request,
                          now_us(), 0.0});
        open_.push_back(id);
        struct Close {
            Tracer* t;
            int id;
            ~Close()
            {
                t->spans_[static_cast<std::size_t>(id)].end_us = t->now_us();
                t->open_.pop_back();
            }
        } close{this, id};
        fn();
    }

    /** Self time per span name, in ms. */
    std::map<std::string, double>
    self_ms() const
    {
        const std::vector<double> child = child_us();
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].name] +=
                (spans_[i].end_us - spans_[i].start_us - child[i]) / 1e3;
        }
        return out;
    }

    /** Total duration of the root spans named `name`, in ms, and the
     *  share of it their direct children cover. */
    std::pair<double, double>
    root_coverage(const std::string& name) const
    {
        const std::vector<double> child = child_us();
        double total = 0.0;
        double covered = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].parent < 0 && spans_[i].name == name) {
                total += spans_[i].end_us - spans_[i].start_us;
                covered += child[i];
            }
        }
        return {total / 1e3, total > 0.0 ? covered / total : 0.0};
    }

    void
    write_chrome(const std::string& path,
                 const std::vector<CompileCase>& cases) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                "\"args\": {\"span\": %zu, \"parent\": %d, \"request\": "
                "%d, \"case\": \"%s\"}}%s\n",
                s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                s.parent, s.request,
                cases[static_cast<std::size_t>(s.request)].label.c_str(),
                i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
        if (!out) {
            throw std::runtime_error("cannot write trace file " + path);
        }
    }

  private:
    double now_us() const { return (now_seconds() - origin_) * 1e6; }

    /** Time each span's direct children cover, in us. */
    std::vector<double>
    child_us() const
    {
        std::vector<double> out(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) {
                out[static_cast<std::size_t>(s.parent)] +=
                    s.end_us - s.start_us;
            }
        }
        return out;
    }

    double origin_ = now_seconds();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Everything one replayed compile leaves behind. */
struct Replay {
    scalar::Kernel kernel;
    TermRef padded;
    std::vector<vir::OutputSlot> slots;
    std::unique_ptr<EGraph> graph;
    ClassId root = 0;
    std::vector<Rewrite> rules;
    std::size_t iterations = 0;
    std::vector<RuleStats> rule_stats;
    bool goal_reached = false;
    std::unique_ptr<DiosCostModel> cost;
    std::unique_ptr<Extractor> extractor;
    Extraction best;
    vir::VProgram vprogram;
    vir::LvnStats lvn;
    vir::CompiledLayout layout;
    vir::EmitTrace emit_trace;
    Program machine;
    std::string c_source;
};

/** The driver's release-build pipeline, one span per public call. */
void
replay_compile(const CompileCase& c, int req, Tracer& t, Replay& r)
{
    const CompilerOptions& o = c.options;
    const int width = o.target.vector_width;
    t.span("scalar.parse", req,
           [&] { r.kernel = scalar::parse_kernel(c.text); });
    t.span("scalar.lift", req, [&] {
        auto [padded, slots] = pad_lifted_spec(scalar::lift(r.kernel), width);
        r.padded = padded;
        r.slots = std::move(slots);
    });
    t.span("egraph.build", req, [&] {
        r.graph = std::make_unique<EGraph>();
        r.root = r.graph->add_term(r.padded);
        r.graph->rebuild();
        r.rules = build_rules(o.rules);
    });
    t.span("egraph.saturate", req, [&] {
        if (o.strategy) {
            strategy::StrategyRunOptions sro;
            sro.base = o.limits;
            const strategy::StrategyReport sr = strategy::run_strategy(
                *r.graph, r.root, r.rules, *o.strategy, sro);
            r.iterations = sr.iterations;
            r.rule_stats = sr.rule_stats;
            r.goal_reached = sr.goal_satisfied;
        } else {
            const RunnerReport rr = Runner(o.limits).run(*r.graph, r.rules);
            r.iterations = rr.iterations.size();
            r.rule_stats = rr.rule_stats;
        }
    });
    t.span("egraph.extract", req, [&] {
        r.cost = std::make_unique<DiosCostModel>(o.cost, width);
        r.extractor = std::make_unique<Extractor>(*r.graph, *r.cost);
        r.best = r.extractor->extract(r.graph->find(r.root));
    });
    t.span("vir.lower", req, [&] {
        r.vprogram = vir::lower_term(r.best.term, width, r.slots,
                                     o.target.has_scalar_mac);
    });
    t.span("vir.lvn", req, [&] { r.lvn = vir::run_lvn(r.vprogram); });
    t.span("machine.emit", req, [&] {
        r.layout = vir::CompiledLayout::make(r.kernel, width);
        r.machine =
            vir::emit_machine(r.vprogram, r.layout, o.target, &r.emit_trace);
    });
    t.span("vir.cprint", req, [&] {
        r.c_source = vir::to_c_intrinsics(r.vprogram, r.kernel.name);
    });
}

/** Per-layer counts accumulated over the replayed cases. */
struct Counts {
    double iterations = 0, nodes = 0, classes = 0, matches = 0,
           applications = 0, memory_proxy_mb = 0, cost_sum = 0,
           goal_reached = 0, degraded = 0, lvn_removed = 0,
           cprint_bytes = 0, instrs = 0, emit_c_bytes = 0,
           m009_unknown = 0, envelope_bytes = 0, response_bytes = 0;
    std::vector<double> sim_cycles;
};

/** The e-graph audit, which needs the replay's graph and extractor. */
void
time_audit(const CompileCase& c, int req, Tracer& t, const Replay& r,
           Result& result)
{
    t.span("analysis.audit", req, [&] {
        analysis::DiagEngine d;
        analysis::audit_egraph(*r.graph, d);
        analysis::audit_extraction(*r.graph, *r.cost, d, r.extractor.get());
        if (d.has_errors()) {
            result.fail(c.label + ": e-graph audit: " + d.render_text());
        }
    });
}

/**
 * The remaining gates off the release path, then the simulator and the
 * native C emitter, all on the replayed artifact. The two symbolic gates
 * run on width-4 cases only: on QRDecomp they take 3-17 s per case, and
 * all four widths would not fit a traced run.
 */
void
time_gates(const CompileCase& c, int req, Tracer& t, const Replay& r,
           Counts& n, Result& result)
{
    const TargetSpec& target = c.options.target;
    const int width = target.vector_width;
    t.span("analysis.vir_verify", req, [&] {
        const analysis::DiagEngine d =
            analysis::verify_compiled_kernel(r.kernel, r.vprogram);
        if (d.has_errors()) {
            result.fail(c.label + ": VIR verifier: " + d.render_text());
        }
    });
    Program rescheduled;
    t.span("machine.schedule", req, [&] {
        rescheduled = schedule_program(r.emit_trace.unscheduled, target);
    });
    if (disassemble(rescheduled, width) != disassemble(r.machine, width)) {
        result.fail(c.label + ": rescheduling differs from emit_machine");
    }
    t.span("analysis.machine_verify", req, [&] {
        analysis::DiagEngine d;
        analysis::verify_machine_program(r.emit_trace.unscheduled, target, d,
                                         &r.layout);
        analysis::verify_machine_program(r.machine, target, d, &r.layout);
        analysis::check_schedule_preservation(r.emit_trace.unscheduled,
                                              r.machine,
                                              r.emit_trace.schedule, target,
                                              d);
        if (d.has_errors()) {
            result.fail(c.label + ": machine verifier: " + d.render_text());
        }
    });
    if (width == 4) {
        t.span("analysis.m009", req, [&] {
            const analysis::MachineValidation mv =
                analysis::validate_machine_translation(r.padded, r.slots,
                                                       r.machine, r.layout,
                                                       target);
            if (mv.verdict == Verdict::kNotEquivalent) {
                result.fail(c.label + ": M009 not equivalent: " +
                            mv.detail);
            }
            n.m009_unknown += mv.verdict == Verdict::kUnknown ? 1 : 0;
        });
        t.span("validation.term", req, [&] {
            if (validate_translation(r.padded, r.best.term) ==
                Verdict::kNotEquivalent) {
                result.fail(c.label + ": term validation: not equivalent");
            }
        });
    }
    t.span("machine.sim", req, [&] {
        Memory memory = r.layout.make_memory(c.inputs);
        const RunResult run = Simulator(target).run(r.machine, memory);
        n.sim_cycles.push_back(static_cast<double>(run.cycles));
        if (!(max_rel_error(r.layout.read_outputs(memory), c.want) <=
              kSimTolerance)) {
            result.fail(c.label + ": replayed program miscomputes");
        }
    });
    t.span("machine.emit_c", req, [&] {
        EmitCOptions copts;
        copts.symbol = "dios_case" + std::to_string(req);
        copts.vector_width = width;
        copts.memory_words = r.layout.memory_words();
        copts.pool = r.layout.pool();
        copts.pool_base = r.layout.pool_base_words();
        n.emit_c_bytes +=
            static_cast<double>(emit_c_kernel(r.machine, copts).size());
    });
}

/** The cache and wire layers, on the artifact the resilient driver built. */
void
time_service(const CompileCase& c, int req, Tracer& t,
             const CompiledKernel& ck, const service::DiskCache& disk,
             Counts& n, Result& result)
{
    service::CacheKey key;
    t.span("service.cache_key", req, [&] {
        key = service::compute_cache_key(ck.kernel, c.options);
    });
    service::CachedEntry entry;
    t.span("service.make_entry", req,
           [&] { entry = service::make_entry(key, c.options, ck); });
    t.span("service.disk_store", req, [&] { disk.store(entry); });
    n.envelope_bytes +=
        static_cast<double>(std::filesystem::file_size(disk.path_for(key)));
    service::LoadResult loaded;
    t.span("service.disk_load", req, [&] { loaded = disk.load(key); });
    if (loaded.status != service::LoadStatus::kHit ||
        loaded.entry->c_source != entry.c_source) {
        result.fail(c.label + ": disk cache round trip failed: " +
                    loaded.detail);
    }

    std::string bytes;
    t.span("daemon.response_encode", req, [&] {
        daemon::CompileResponse resp;
        resp.status = daemon::ResponseStatus::kOk;
        resp.entry = entry;
        daemon::Frame frame;
        frame.type = daemon::FrameType::kCompileResponse;
        frame.payload = daemon::encode_compile_response(resp);
        bytes = daemon::encode_frame(frame);
    });
    n.response_bytes += static_cast<double>(bytes.size());
    std::optional<daemon::CompileResponse> decoded;
    t.span("daemon.response_decode", req, [&] {
        daemon::FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        daemon::Frame frame;
        daemon::FrameError err;
        if (decoder.poll(frame, err) == daemon::FrameDecoder::Status::kFrame) {
            decoded = daemon::decode_compile_response(frame.payload);
        }
    });
    if (!decoded || !decoded->entry ||
        decoded->entry->c_source != entry.c_source) {
        result.fail(c.label + ": response frame round trip failed");
    }
}

}  // namespace

void
run_traced(const RunConfig& cfg, const std::vector<CompileCase>& cases,
           Result& result)
{
    const std::filesystem::path cache_dir =
        std::filesystem::path(cfg.workdir) / "trace-cache";
    std::filesystem::remove_all(cache_dir);
    const service::DiskCache disk(cache_dir.string());

    Tracer t;
    Counts n;
    double untraced_s = 0.0;
    double report_saturate_s = 0.0;
    double report_extract_s = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CompileCase& c = cases[i];
        const int req = static_cast<int>(i);
        const int width = c.options.target.vector_width;
        result.attempt();

        // The untraced reference is the program's own entry point. It
        // runs next to the replay, alternating which goes first, so both
        // see the same heap; keeping every reference alive until the end
        // slows whatever runs after it by 10-20%.
        CompileResult ref;
        auto untraced = [&] {
            const double t0 = now_seconds();
            ref = compile_kernel_resilient(scalar::parse_kernel(c.text),
                                           c.options);
            untraced_s += now_seconds() - t0;
        };
        if (i % 2 == 0) {
            untraced();
        }
        Replay r;
        t.span("compile", req, [&] { replay_compile(c, req, t, r); });
        t.span("offpath", req, [&] { time_audit(c, req, t, r, result); });
        // The driver frees its e-graph before returning; here that waits
        // for the audit, so it is timed in a second span of the compile.
        t.span("compile", req, [&] {
            t.span("egraph.free", req, [&] {
                r.extractor.reset();
                r.cost.reset();
                r.graph.reset();
                r.rules.clear();
            });
        });
        if (i % 2 == 1) {
            untraced();
        }
        if (!ref.ok) {
            result.fail(c.label + ": compile failed: " + ref.error);
            continue;
        }
        const CompiledKernel& ck = *ref.compiled;
        if (artifact_text(r.machine, r.c_source, width) !=
            artifact_text(ck.machine, ck.c_source, width)) {
            result.fail(c.label + ": replay is not byte-identical to "
                                  "compile_kernel_resilient");
        }
        t.span("offpath", req, [&] {
            time_gates(c, req, t, r, n, result);
            time_service(c, req, t, ck, disk, n, result);
        });

        report_saturate_s += ck.report.saturation_seconds;
        report_extract_s += ck.report.extract_seconds;
        n.degraded += ck.report.fallback_level > 0 ? 1 : 0;
        n.iterations += static_cast<double>(r.iterations);
        n.nodes += static_cast<double>(ck.report.egraph_nodes);
        n.classes += static_cast<double>(ck.report.egraph_classes);
        n.memory_proxy_mb +=
            static_cast<double>(ck.report.memory_proxy_bytes) / (1 << 20);
        for (const RuleStats& rs : r.rule_stats) {
            n.matches += static_cast<double>(rs.matches);
            n.applications += static_cast<double>(rs.applications);
        }
        n.cost_sum += r.best.cost;
        n.goal_reached += r.goal_reached ? 1 : 0;
        n.lvn_removed +=
            static_cast<double>(r.lvn.value_numbered + r.lvn.dead_removed);
        n.cprint_bytes += static_cast<double>(r.c_source.size());
        n.instrs += static_cast<double>(r.machine.size());
    }
    t.write_chrome(cfg.trace_out, cases);
    std::fprintf(stderr, "; trace written to %s\n", cfg.trace_out.c_str());

    std::map<std::string, double> self = t.self_ms();
    for (const char* layer :
         {"scalar.parse", "scalar.lift", "egraph.build", "egraph.saturate",
          "egraph.extract", "egraph.free", "vir.lower", "vir.lvn",
          "machine.emit", "vir.cprint", "machine.schedule", "machine.emit_c",
          "machine.sim",
          "analysis.audit", "analysis.vir_verify", "analysis.machine_verify",
          "analysis.m009", "validation.term", "service.cache_key",
          "service.make_entry", "service.disk_store", "service.disk_load",
          "daemon.response_encode", "daemon.response_decode"}) {
        result.metric(std::string(layer) + "_ms", self[layer], "ms");
    }
    result.metric("egraph.iterations", n.iterations, "count");
    result.metric("egraph.nodes", n.nodes, "count");
    result.metric("egraph.classes", n.classes, "count");
    result.metric("egraph.matches", n.matches, "count");
    result.metric("egraph.applications", n.applications, "count");
    result.metric("egraph.apply_ratio",
                  n.matches > 0 ? n.applications / n.matches : 0.0, "ratio");
    result.metric("egraph.memory_proxy_mb", n.memory_proxy_mb, "MB");
    result.metric("egraph.extracted_cost_sum", n.cost_sum, "cost");
    result.metric("strategy.goal_reached", n.goal_reached, "count");
    result.metric("compiler.degraded", n.degraded, "count");
    result.metric("vir.lvn_removed", n.lvn_removed, "count");
    result.metric("vir.cprint_bytes", n.cprint_bytes, "bytes");
    result.metric("machine.instrs", n.instrs, "count");
    result.metric("machine.sim_cycles_geomean", geomean(n.sim_cycles),
                  "cycles");
    result.metric("machine.emit_c_bytes", n.emit_c_bytes, "bytes");
    result.metric("machine.emit_c_bytes_per_instr",
                  n.instrs > 0 ? n.emit_c_bytes / n.instrs : 0.0, "bytes");
    result.metric("analysis.m009_unknown", n.m009_unknown, "count");
    result.metric("service.envelope_bytes", n.envelope_bytes, "bytes");
    result.metric("daemon.response_bytes", n.response_bytes, "bytes");

    const auto [compile_ms, coverage] = t.root_coverage("compile");
    result.metric("trace.coverage", coverage, "ratio");
    result.metric("trace.overhead",
                  (compile_ms / 1e3 - untraced_s) / untraced_s, "ratio");
    result.metric("trace.saturate_ratio",
                  (self["egraph.build"] + self["egraph.saturate"]) / 1e3 /
                      report_saturate_s,
                  "ratio");
    result.metric("trace.extract_ratio",
                  self["egraph.extract"] / 1e3 / report_extract_s, "ratio");
    std::filesystem::remove_all(cache_dir);
}

}  // namespace diospyros::benchmark
