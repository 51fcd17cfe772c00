// The cache-format byte contract shared by format_golden_test and
// codec_mutation_test: the cases tests/golden/format.golden pins, how
// each case's cache entry is built, and a reader for the golden file.
//
// Each case compiles one kernel (the four tools/kernels/*.ksp and three
// Table-1 kernels) at one preset width and records two texts: the
// envelope file DiskCache::store writes, and the payload
// daemon::encode_compile_response sends for an ok response. An entry
// holds no wall-clock time, so both texts depend only on what the
// compile decided.
//
// File layout: '#' comment lines, then one record per text,
//
//   @ <case> <envelope|payload> <byte count>
//   <exactly that many bytes>
//
// with one '\n' after the bytes.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "compiler/driver.h"
#include "kernels/kernels.h"
#include "scalar/parse.h"
#include "service/cache_key.h"
#include "service/serialize.h"

namespace diospyros::format_golden {

/** One golden text: a case's envelope or its response payload. */
struct Record {
    std::string name;  ///< "<case> <envelope|payload>"
    std::string text;
};

/** One kernel at one width. */
struct Case {
    std::string name;
    scalar::Kernel kernel;
    int width;
};

inline std::vector<Case>
cases()
{
    std::vector<std::pair<std::string, scalar::Kernel>> kernels;
    for (const char* stem :
         {"conv2d_3x5_3x3", "conv2d_8x8_3x3", "dot4", "vadd"}) {
        kernels.emplace_back(stem, scalar::parse_kernel_file(
                                       std::string(DIOS_SOURCE_DIR) +
                                       "/tools/kernels/" + stem + ".ksp"));
    }
    for (const kernels::BenchmarkInstance& inst :
         kernels::table1_instances()) {
        const std::string label = inst.label();
        if (label == "MatMul 2x3, 3x3" || label == "QProd 4, 3, 4, 3" ||
            label == "QRDecomp 3x3") {
            std::string name = inst.suite;
            for (const char c : " " + inst.size) {
                if (c != ',') {
                    name += c == ' ' ? '_' : c;
                }
            }
            kernels.emplace_back(name, inst.kernel);
        }
    }
    std::vector<Case> out;
    for (const auto& [name, kernel] : kernels) {
        for (const int width : {2, 4, 8, 16}) {
            out.push_back({name + "@w" + std::to_string(width), kernel,
                           width});
        }
    }
    return out;
}

inline CompilerOptions
options_for(int width)
{
    CompilerOptions options;
    options.target = TargetSpec::for_width(width);
    // Node and iteration limits decide where saturation stops; the time
    // limit only guards a runaway compile and must never trip.
    options.limits = RunnerLimits{.node_limit = 60'000,
                                  .iter_limit = 6,
                                  .time_limit_seconds = 8.0};
    return options;
}

/** The case's cache entry, as the compile service stores it. */
inline service::CachedEntry
entry_for(const Case& c)
{
    const CompilerOptions options = options_for(c.width);
    const CompileResult result = compile_kernel_resilient(c.kernel, options);
    EXPECT_TRUE(result.ok) << c.name;
    if (!result.ok) {
        return {};
    }
    EXPECT_NE(result.compiled->report.stop_reason, StopReason::kTimeLimit)
        << c.name;
    return service::make_entry(service::compute_cache_key(c.kernel, options),
                               options, *result.compiled);
}

/** A fresh directory under the system temp dir, removed on destruction. */
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const std::string& tag)
        : path(std::filesystem::temp_directory_path() /
               ("dios_" + tag + "_" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

inline const char*
golden_path()
{
    return DIOS_SOURCE_DIR "/tests/golden/format.golden";
}

/** Every record of the golden file, in file order. */
inline std::vector<Record>
read_golden()
{
    std::ifstream in(golden_path(), std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << golden_path();
    std::vector<Record> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream header(line);
        std::string at, name, kind;
        std::size_t size = 0;
        header >> at >> name >> kind >> size;
        EXPECT_EQ(at, "@") << line;
        std::string text(size, '\0');
        in.read(text.data(), static_cast<std::streamsize>(size));
        EXPECT_EQ(in.get(), '\n') << name << " " << kind;
        out.push_back({name + " " + kind, std::move(text)});
    }
    return out;
}

/** Renders records in the golden file's layout. */
inline std::string
render(const std::vector<Record>& records)
{
    std::string out =
        "# Cache envelopes (as DiskCache::store writes them) and\n"
        "# compile-response payloads, byte for byte; see "
        "tests/format_golden.h.\n";
    for (const Record& r : records) {
        out += "@ " + r.name + " " + std::to_string(r.text.size()) + "\n";
        out += r.text + "\n";
    }
    return out;
}

}  // namespace diospyros::format_golden
