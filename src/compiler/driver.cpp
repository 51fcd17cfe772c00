#include "compiler/driver.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/audit_egraph.h"
#include "analysis/verify_machine.h"
#include "analysis/verify_vir.h"
#include "egraph/extract.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/timer.h"
#include "vir/cprint.h"

namespace diospyros {

/**
 * Inserts alignment zeros so each output array's element run is padded to
 * a multiple of the vector width, and builds the matching OutputSlots.
 */
std::pair<TermRef, std::vector<vir::OutputSlot>>
pad_lifted_spec(const scalar::LiftedSpec& spec, int width)
{
    std::vector<vir::OutputSlot> slots;
    std::vector<TermRef> padded;
    const TermRef zero = Term::constant(Rational(0));
    std::size_t cursor = 0;
    const auto& elements = spec.spec->children();
    for (const auto& [name, len] : spec.outputs) {
        const std::int64_t padded_len =
            (len + width - 1) / width * width;
        slots.push_back(vir::OutputSlot{name, len, padded_len});
        for (std::int64_t i = 0; i < len; ++i) {
            DIOS_ASSERT(cursor < elements.size(),
                        "spec shorter than its output manifest");
            padded.push_back(elements[cursor++]);
        }
        for (std::int64_t i = len; i < padded_len; ++i) {
            padded.push_back(zero);
        }
    }
    DIOS_ASSERT(cursor == elements.size(),
                "spec longer than its output manifest");
    return {t_list(std::move(padded)), std::move(slots)};
}

namespace {

/** Whether this compile runs the static-analysis gates. */
bool
gates_enabled(const CompilerOptions& options)
{
    return options.verify_ir || analysis::verify_ir_default();
}

/** Whether this compile runs the machine-code gates (M-codes). */
bool
machine_gates_enabled(const CompilerOptions& options)
{
    return options.verify_machine || analysis::verify_machine_default();
}

/**
 * Machine gates: structural verification of the program as emitted and
 * as scheduled, plus the scheduler-preservation proof. Raises
 * InternalError with the rendered M-code findings.
 */
void
verify_machine_or_throw(const vir::EmitTrace& trace, const Program& machine,
                        const vir::CompiledLayout& layout,
                        const TargetSpec& target)
{
    analysis::DiagEngine diags;
    analysis::verify_machine_program(trace.unscheduled, target, diags,
                                     &layout);
    analysis::verify_machine_program(machine, target, diags, &layout);
    analysis::check_schedule_preservation(trace.unscheduled, machine,
                                          trace.schedule, target, diags);
    DIOS_ASSERT(!diags.has_errors(),
                "machine verifier rejected the emitted program:\n" +
                    diags.render_text());
}

/**
 * Emits machine code, running the structural/scheduling gates when
 * enabled, then (when asked) symbolically validates the final scheduled
 * code against the padded spec and records the verdict in the report.
 */
void
emit_and_verify(CompiledKernel& out, const CompilerOptions& options,
                const std::vector<vir::OutputSlot>& slots)
{
    if (machine_gates_enabled(options)) {
        vir::EmitTrace trace;
        out.machine = vir::emit_machine(out.vprogram, out.layout,
                                        options.target, &trace);
        verify_machine_or_throw(trace, out.machine, out.layout,
                                options.target);
    } else {
        out.machine = vir::emit_machine(out.vprogram, out.layout,
                                        options.target);
    }
    // Symbolic machine-level validation is opt-in even in debug builds —
    // it canonicalizes every output element, the same cost class as
    // term-level validate_translation.
    if (options.validate || options.verify_machine) {
        const analysis::MachineValidation mv =
            analysis::validate_machine_translation(
                out.padded_spec, slots, out.machine, out.layout,
                options.target);
        out.report.machine_validated = true;
        out.report.machine_validation = mv.verdict;
        if (mv.witness) {
            out.report.machine_witness = mv.witness->to_string();
        }
    }
}

/** VIR verifier gate: raises InternalError with the rendered findings. */
void
verify_vir_or_throw(const scalar::Kernel& kernel,
                    const vir::VProgram& program, const char* phase)
{
    const analysis::DiagEngine diags =
        analysis::verify_compiled_kernel(kernel, program);
    DIOS_ASSERT(!diags.has_errors(),
                std::string("VIR verifier rejected the program after ") +
                    phase + ":\n" + diags.render_text());
}

/** E-graph audit gate (structure, and extraction when one is given). */
void
audit_egraph_or_throw(const EGraph& graph, const CostModel& cost,
                      const Extractor* extractor, const char* phase)
{
    analysis::DiagEngine diags;
    analysis::audit_egraph(graph, diags);
    analysis::audit_extraction(graph, cost, diags, extractor);
    DIOS_ASSERT(!diags.has_errors(),
                std::string("e-graph audit failed after ") + phase +
                    ":\n" + diags.render_text());
}

/**
 * The full pipeline, sharing the caller's compile-wide deadline. With
 * `direct` it is the ladder's final rung instead: no e-graph at all, the
 * padded spec itself is lowered. That result is correct by construction
 * (scalar code, vectorized only where the backend's LVN helps), so the
 * only remaining failure modes are an invalid kernel or a fault injected
 * into the backend itself.
 */
CompiledKernel
compile_with_deadline(const scalar::Kernel& kernel, CompilerOptions options,
                      const Deadline& deadline, bool direct = false)
{
    options.sync();
    check_vector_width(options.target.vector_width);
    const int width = options.target.vector_width;

    CompiledKernel out;
    out.kernel = kernel;
    Timer total;

    // Phase 1: symbolic evaluation (lifting) + alignment padding.
    deadline.check("lifting");
    Timer phase;
    out.spec = scalar::lift(kernel);
    auto [padded, slots] = pad_lifted_spec(out.spec, width);
    out.padded_spec = padded;
    out.report.lift_seconds = phase.elapsed_seconds();
    out.report.spec_elements = padded->arity();
    out.report.spec_dag_nodes = Term::dag_size(padded);

    const bool gates = gates_enabled(options);
    if (direct) {
        // No saturation ran: a zero iteration budget stopped the "search".
        out.report.stop_reason = StopReason::kIterLimit;
        out.extracted = out.padded_spec;
    } else {
        // Phase 2: equality saturation. The runner stops gracefully at
        // the deadline (partial e-graphs are usable, §5.5); the
        // per-phase checkpoints below turn an exhausted budget into
        // DeadlineExceeded.
        phase.reset();
        EGraph graph;
        const ClassId root = graph.add_term(padded);
        graph.rebuild();
        saturate(graph, root, options, deadline, out.report);
        out.report.saturation_seconds = phase.elapsed_seconds();
        out.report.egraph_nodes = graph.num_nodes();
        out.report.egraph_classes = graph.num_classes();
        out.report.memory_proxy_bytes = graph.memory_proxy_bytes();

        // Phase 3: extraction (checks the deadline per relaxation pass).
        phase.reset();
        deadline.check("extraction");
        const DiosCostModel cost(options.cost, width);
        if (gates) {
            audit_egraph_or_throw(graph, cost, nullptr, "saturation");
        }
        const Extractor extractor(graph, cost, deadline);
        Extraction best = extractor.extract(graph.find(root));
        out.extracted = best.term;
        out.report.extracted_cost = best.cost;
        out.report.extract_seconds = phase.elapsed_seconds();
        if (gates) {
            audit_egraph_or_throw(graph, cost, &extractor, "extraction");
        }
    }

    // Phase 4: backend — lower, LVN, instruction selection, C source.
    phase.reset();
    deadline.check("lowering");
    out.vprogram = vir::lower_term(out.extracted, width, slots,
                                   options.target.has_scalar_mac);
    if (gates) {
        verify_vir_or_throw(kernel, out.vprogram, "lowering");
    }
    deadline.check("lvn");
    std::vector<analysis::StoreSig> stores_before;
    if (gates) {
        stores_before = analysis::store_signature(out.vprogram);
    }
    out.report.lvn = vir::run_lvn(out.vprogram);
    if (gates) {
        analysis::DiagEngine diags;
        analysis::verify_vprogram(
            out.vprogram, diags,
            analysis::padded_extents(kernel, width));
        analysis::check_store_order(stores_before, out.vprogram, diags);
        DIOS_ASSERT(!diags.has_errors(),
                    "VIR verifier rejected the program after LVN:\n" +
                        diags.render_text());
    }
    out.layout = vir::CompiledLayout::make(kernel, width);
    deadline.check("emission");
    emit_and_verify(out, options, slots);
    out.c_source = vir::to_c_intrinsics(out.vprogram, kernel.name);
    out.report.backend_seconds = phase.elapsed_seconds();

    // Phase 5 (optional): translation validation. A direct compile's
    // optimized term is pointer-identical to the spec, so both checks
    // hold trivially — record them without re-deriving (the report's
    // random_check_passed already defaults to true).
    out.report.validated = options.validate;
    out.report.random_checked = options.random_check;
    if (direct) {
        if (options.validate) {
            out.report.validation = Verdict::kEquivalent;
        }
    } else if (options.validate) {
        deadline.check("validation");
        out.report.validation =
            validate_translation(out.padded_spec, out.extracted);
    }
    if (!direct && options.random_check) {
        deadline.check("random-check");
        out.report.random_check_passed =
            random_equivalent(out.padded_spec, out.extracted);
    }

    out.report.total_seconds = total.elapsed_seconds();
    return out;
}

/** Options for one degradation-ladder rung (see driver.h file header). */
CompilerOptions
rung_options(const CompilerOptions& base, int level)
{
    CompilerOptions o = base;
    if (level >= 1) {
        // Reduced search: aggressive backoff, capped match batches, a
        // quarter of the node budget, and a hard memory ceiling, so a
        // blow-up that killed rung 0 cannot simply repeat.
        o.limits.node_limit =
            std::max<std::size_t>(base.limits.node_limit / 4, 10'000);
        o.limits.iter_limit = std::min(base.limits.iter_limit, 8);
        if (o.limits.backoff_threshold == 0) {
            o.limits.backoff_threshold = 64;
        }
        if (o.limits.match_limit_per_rule == 0) {
            o.limits.match_limit_per_rule = 1024;
        }
        if (o.limits.memory_limit_bytes == 0) {
            o.limits.memory_limit_bytes = std::size_t{512} << 20;
        }
    }
    if (level >= 2) {
        // Scalar simplification only (the §5.6 ablation configuration —
        // still beats the fixed-size baseline through global CSE). A
        // strategy cannot ride along: its phases name vector rules that
        // no longer exist, which would turn a resource blow-up into a
        // spurious UserError.
        o.rules.enable_vector_rules = false;
        o.strategy.reset();
    }
    return o;
}

/**
 * The compile-wide budget: the relative `deadline_seconds` intersected
 * with the absolute deadline a service may have attached at admission.
 */
Deadline
effective_deadline(const CompilerOptions& options)
{
    const Deadline relative =
        options.deadline_seconds > 0.0
            ? Deadline::after_seconds(options.deadline_seconds)
            : Deadline::unlimited();
    return Deadline::sooner(relative, options.absolute_deadline);
}

}  // namespace

void
saturate(EGraph& graph, ClassId root, const CompilerOptions& options,
         const Deadline& deadline, CompileReport& report)
{
    strategy::StrategyRunOptions sro;
    sro.base = options.limits;
    sro.deadline = deadline;
    const strategy::StrategyReport sr = strategy::run_strategy(
        graph, root, build_rules(options.rules),
        options.strategy ? *options.strategy : strategy::builtin_default(),
        sro);
    report.stop_reason = sr.stop_reason;
    report.runner_iterations = sr.iterations;
    report.rule_stats = sr.rule_stats;
    report.strategy_name = sr.strategy_name;
    report.strategy_phases = sr.phases;
    report.strategy_goal_satisfied = sr.goal_satisfied;
}

const char*
failure_class_name(FailureClass c)
{
    switch (c) {
      case FailureClass::kNone:
        return "none";
      case FailureClass::kUser:
        return "user";
      case FailureClass::kResource:
        return "resource";
      case FailureClass::kInternal:
        return "internal";
      case FailureClass::kInjectedFault:
        return "injected-fault";
      case FailureClass::kOverloaded:
        return "overloaded";
      case FailureClass::kExpired:
        return "expired";
    }
    return "unknown";
}

const char*
fallback_level_name(int level)
{
    switch (level) {
      case 0:
        return "full";
      case 1:
        return "reduced";
      case 2:
        return "scalar-rules";
      case 3:
        return "direct-scalar";
    }
    return "unknown";
}

CompiledKernel::RunOutcome
CompiledKernel::run(const scalar::BufferMap& inputs,
                    const TargetSpec& target) const
{
    Memory memory = layout.make_memory(inputs);
    Simulator sim(target);
    RunOutcome outcome;
    outcome.result = sim.run(machine, memory);
    outcome.outputs = layout.read_outputs(memory);
    // Shape-check against the kernel's output manifest so callers can
    // element-wise compare without out-of-bounds reads.
    for (const auto& [name, len] : spec.outputs) {
        const auto it = outcome.outputs.find(name);
        DIOS_ASSERT(it != outcome.outputs.end(),
                    "simulated run produced no buffer for output '" + name +
                        "'");
        DIOS_ASSERT(it->second.size() == static_cast<std::size_t>(len),
                    "output '" + name + "' has " +
                        std::to_string(it->second.size()) +
                        " elements but the kernel manifest declares " +
                        std::to_string(len));
    }
    return outcome;
}

CompiledKernel
compile_kernel(const scalar::Kernel& kernel, CompilerOptions options)
{
    return compile_with_deadline(kernel, options,
                                 effective_deadline(options));
}

CompileResult
compile_kernel_resilient(const scalar::Kernel& kernel,
                         CompilerOptions options)
{
    constexpr int kDirectLevel = 3;
    CompileResult result;

    // Per-compile fault scope: hit counters start at zero for THIS
    // compile, and concurrent compiles (the service's worker pool) never
    // observe each other's armed specs.
    std::vector<faults::FaultSpec> fault_specs;
    try {
        for (const std::string& spec : options.fault_specs) {
            fault_specs.push_back(faults::parse_spec(spec));
        }
    } catch (const std::exception& e) {
        result.error = e.what();
        // Malformed fault specs come from CLI flags / test config.
        result.user_error = true;
        result.failure_class = FailureClass::kUser;
        return result;
    }
    const faults::ScopedFaults scoped_faults(std::move(fault_specs));

    const Deadline deadline = effective_deadline(options);

    for (int level = 0; level <= kDirectLevel; ++level) {
        Timer attempt_timer;
        AttemptDiagnostic diag;
        diag.level = level;
        try {
            // The final rung ignores the shared deadline: it is the
            // cheap, always-succeeds fallback that guarantees the
            // service returns *something*.
            const bool direct = level == kDirectLevel;
            CompiledKernel compiled = compile_with_deadline(
                kernel, rung_options(options, level),
                direct ? Deadline::unlimited() : deadline, direct);

            // Post-hoc verification failures degrade like exceptions do.
            // They indicate a miscompile, i.e. a library bug: kInternal,
            // so the service never remembers them as a property of the
            // kernel itself.
            if (compiled.report.validation == Verdict::kNotEquivalent) {
                diag.error = "translation validation reported "
                             "NOT-equivalent";
                diag.failure_class = FailureClass::kInternal;
            } else if (compiled.report.machine_validation ==
                       Verdict::kNotEquivalent) {
                diag.error = "machine-level translation validation "
                             "reported NOT-equivalent";
                if (!compiled.report.machine_witness.empty()) {
                    diag.error +=
                        " (" + compiled.report.machine_witness + ")";
                }
                diag.failure_class = FailureClass::kInternal;
            } else if (!compiled.report.random_check_passed) {
                diag.error = "random differential check failed";
                diag.failure_class = FailureClass::kInternal;
            }
            diag.seconds = attempt_timer.elapsed_seconds();
            if (!diag.error.empty()) {
                result.attempts.push_back(diag);
                result.error = diag.error;
                result.failure_class = diag.failure_class;
                continue;
            }

            result.attempts.push_back(diag);
            result.ok = true;
            result.fallback_level = level;
            result.error.clear();
            result.failure_class = FailureClass::kNone;
            compiled.report.fallback_level = level;
            compiled.report.attempts = result.attempts;
            if (level > 0) {
                compiled.report.error =
                    result.attempts[result.attempts.size() - 2].error;
            }
            result.compiled = std::move(compiled);
            return result;
        } catch (const UserError& e) {
            // The kernel or options are invalid: every rung would fail
            // the same way, so don't burn budget retrying.
            diag.error = std::string("user error: ") + e.what();
            diag.failure_class = FailureClass::kUser;
            diag.seconds = attempt_timer.elapsed_seconds();
            result.attempts.push_back(diag);
            result.error = diag.error;
            result.user_error = true;
            result.failure_class = FailureClass::kUser;
            return result;
        } catch (const faults::InjectedFault& e) {
            diag.error = e.what();
            diag.failure_class = FailureClass::kInjectedFault;
        } catch (const ResourceLimitError& e) {
            diag.error = e.what();
            diag.failure_class = FailureClass::kResource;
        } catch (const InternalError& e) {
            diag.error = e.what();
            diag.failure_class = FailureClass::kInternal;
        } catch (const std::exception& e) {
            diag.error = e.what();
            diag.failure_class = FailureClass::kInternal;
        } catch (...) {
            diag.error = "unknown exception";
            diag.failure_class = FailureClass::kInternal;
        }
        diag.seconds = attempt_timer.elapsed_seconds();
        result.attempts.push_back(diag);
        result.error = diag.error;
        result.failure_class = diag.failure_class;
    }
    return result;
}

OutputComparison
compare_outputs(const scalar::BufferMap& got, const scalar::BufferMap& want)
{
    OutputComparison cmp;
    std::ostringstream problems;
    bool first = true;
    for (const auto& [name, w] : want) {
        const auto it = got.find(name);
        if (it == got.end()) {
            problems << (first ? "" : "; ") << "missing output '" << name
                     << "'";
            first = false;
            continue;
        }
        const auto& g = it->second;
        if (g.size() != w.size()) {
            problems << (first ? "" : "; ") << "output '" << name
                     << "' has " << g.size() << " elements, expected "
                     << w.size();
            first = false;
            continue;
        }
        for (std::size_t i = 0; i < w.size(); ++i) {
            cmp.max_abs_error =
                std::max(cmp.max_abs_error, std::abs(g[i] - w[i]));
        }
    }
    cmp.shape_error = problems.str();
    return cmp;
}

std::string
report_row(const std::string& name, const CompileReport& r, bool cached)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(2);
    os << name;
    if (!cached) {
        os << "  time=" << r.total_seconds << "s"
           << " (sat=" << r.saturation_seconds << "s)";
    }
    os << " nodes=" << r.egraph_nodes << " classes=" << r.egraph_classes
       << " stop=" << stop_reason_name(r.stop_reason)
       << " mem~" << (r.memory_proxy_bytes / (1024.0 * 1024.0)) << "MB"
       << " cost=" << r.extracted_cost;
    if (r.fallback_level > 0) {
        os << " fallback=" << fallback_level_name(r.fallback_level);
    }
    return os.str();
}

}  // namespace diospyros
