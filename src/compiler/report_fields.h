/**
 * @file
 * The one list of CompileReport fields (DESIGN.md §5j).
 *
 * Each row gives a field's name (its JSON key and wire name alike), the
 * member it reads and writes, and where it appears. The member's type is
 * the row's kind: a count, seconds (a double; `format` spells it in
 * JSON), a bool, a string, an enum spelled by its name, or the list of
 * ladder attempts. A JSON-only row that derives its value (`lvn_removed`,
 * `fallback`, the `ematch_*` totals, the `rule_stats` and `phases`
 * arrays) holds the function that writes it instead.
 *
 * Three consumers loop over the list and name no field themselves:
 *  - write_report_json, behind `dioscc --json`;
 *  - the cache entry writer and reader (service/serialize.cpp), which
 *    carry the persisted rows in the disk envelope and on the daemon
 *    wire, one `(name value...)` list per row.
 * `rule_stats`, `ematch_matches` and `phases` describe the run that
 * compiled (kRun), so a cache hit has none: the `--json` of a report
 * served from a cache prints them as a run that did nothing would, from
 * memory as from disk or diosd. Wall-clock rows are never persisted: an
 * entry is a function of the kernel and its budgets alone, and the
 * `--json` of a report served from a cache reads null for them.
 */
#pragma once

#include <span>
#include <variant>
#include <vector>

#include "compiler/driver.h"
#include "support/json.h"
#include "support/sexpr.h"

namespace diospyros {

/** Where a row appears, and whether it reads a clock; bits of `where`. */
enum ReportWhere : unsigned {
    kJson = 1u << 0,        ///< `--json` of a successful compile
    kFailedJson = 1u << 1,  ///< `--json` of a failed compile
    kPersisted = 1u << 2,   ///< the cache envelope and the daemon wire
    kClock = 1u << 3,       ///< seconds: null in `--json` of a cache hit
    kRun = 1u << 4,         ///< the compiling run's: empty for a cache hit
};

/** What a row reads and writes (see file header). */
using ReportMember =
    std::variant<std::size_t CompileReport::*, int CompileReport::*,
                 double CompileReport::*, bool CompileReport::*,
                 std::string CompileReport::*, StopReason CompileReport::*,
                 Verdict CompileReport::*, std::size_t vir::LvnStats::*,
                 std::vector<AttemptDiagnostic> CompileReport::*,
                 void (*)(JsonWriter&, const CompileReport&)>;

/** One CompileReport field (see file header). */
struct ReportField {
    const char* name;
    unsigned where;
    ReportMember member;
    /**
     * For a gate's verdict: the flag that says the gate ran. When it is
     * false, JSON reads "skipped" (a verdict) or null (a bool).
     */
    bool CompileReport::*ran = nullptr;
    /** printf format of a double in JSON. */
    const char* format = "%.6f";

    bool persisted() const { return (where & kPersisted) != 0; }

    /**
     * `"name":value` into `w`; `cached`: served from a cache (kClock,
     * kRun).
     */
    void json(JsonWriter& w, const CompileReport& r,
              bool cached = false) const;
    /** Appends `(name values...)` of a persisted row to `w`. */
    void encode(const CompileReport& r, SexprWriter& w) const;
    /**
     * Reads the values of a persisted row, whose head `c` has just read,
     * through the row's ')'; sets the member. Raises UserError naming
     * the row.
     */
    void decode(SexprCursor& c, CompileReport& r) const;
};

/** Every CompileReport row, in JSON and wire order. */
std::span<const ReportField> report_fields();

/** Writes every row marked `where` into the open object of `w`. */
void write_report_json(JsonWriter& w, const CompileReport& r,
                       unsigned where = kJson, bool cached = false);

}  // namespace diospyros
