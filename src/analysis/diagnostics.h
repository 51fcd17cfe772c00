/**
 * @file
 * Structured diagnostics for the static-analysis passes.
 *
 * Every analysis (VIR verifier, e-graph auditor, rule linter) reports
 * findings as Diag records carrying a stable machine-readable code, the
 * producing pass, and an optional anchor (instruction index or e-class
 * id). A DiagEngine accumulates them and renders them as text, one
 * line per finding, so the same findings can gate the pipeline
 * (driver/service) and feed tooling (dioscc --lint-rules, tests).
 *
 * Code ranges: V0xx = VIR verifier, E1xx/E2xx = e-graph auditor
 * (structure / extraction), R3xx = rule linter.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace diospyros::analysis {

/** How bad a finding is. */
enum class Severity {
    kError,    ///< artifact is wrong; must not be cached or emitted
    kWarning,  ///< suspicious but not provably wrong
    kNote,     ///< informational context for a preceding finding
};

/** Debug spelling ("error", "warning", "note"). */
const char* severity_name(Severity severity);

/** One finding from a static-analysis pass. */
struct Diag {
    Severity severity = Severity::kError;
    /** Producing pass: "vir-verify", "egraph-audit", "rule-lint". */
    std::string pass;
    /** Stable machine-readable code, e.g. "V004". */
    std::string code;
    /** Anchor instruction index for VIR findings (-1 when n/a). */
    int instr_index = -1;
    /** Anchor e-class id for e-graph findings (-1 when n/a). */
    std::int64_t eclass_id = -1;
    std::string message;
};

/** Accumulates diagnostics and renders them. */
class DiagEngine {
  public:
    void add(Diag diag);

    /** Convenience constructors for the common severities. */
    void error(const std::string& pass, const std::string& code,
               const std::string& message, int instr_index = -1,
               std::int64_t eclass_id = -1);
    void warning(const std::string& pass, const std::string& code,
                 const std::string& message, int instr_index = -1,
                 std::int64_t eclass_id = -1);
    void note(const std::string& pass, const std::string& code,
              const std::string& message, int instr_index = -1,
              std::int64_t eclass_id = -1);

    const std::vector<Diag>& diags() const { return diags_; }
    std::size_t error_count() const { return errors_; }
    std::size_t warning_count() const { return warnings_; }
    bool has_errors() const { return errors_ > 0; }

    /** True if any diagnostic carries this code. */
    bool has_code(const std::string& code) const;

    /** One "severity pass [code] anchor: message" line per finding. */
    std::string render_text() const;

  private:
    std::vector<Diag> diags_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
};

}  // namespace diospyros::analysis
