// Pins the bytes of cache envelopes and compile-response
// payloads (tests/format_golden.h describes the cases). Any change to
// the writers' spacing, quoting, field order or number spelling shows up
// here; such a change needs a new kCacheFormatVersion, not a new golden.
// On a mismatch the computed file is written next to the test binary as
// format.golden.actual.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "daemon/protocol.h"
#include "format_golden.h"
#include "service/disk_cache.h"

namespace diospyros {
namespace {

TEST(FormatGolden, EnvelopesAndPayloadsAreByteIdentical)
{
    const format_golden::TempDir dir("format_golden");
    std::vector<format_golden::Record> computed;
    {
        const service::DiskCache disk(dir.path.string());
        for (const format_golden::Case& c : format_golden::cases()) {
            const service::CachedEntry entry = format_golden::entry_for(c);
            disk.store(entry);
            std::ifstream in(disk.path_for(entry.key), std::ios::binary);
            computed.push_back(
                {c.name + " envelope",
                 std::string(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>())});
            daemon::CompileResponse resp;
            resp.status = daemon::ResponseStatus::kOk;
            resp.entry = entry;
            computed.push_back({c.name + " payload",
                                daemon::encode_compile_response(resp)});
        }
    }

    const std::vector<format_golden::Record> golden =
        format_golden::read_golden();
    bool all_match = golden.size() == computed.size();
    EXPECT_EQ(golden.size(), computed.size());
    for (std::size_t i = 0; i < std::min(golden.size(), computed.size());
         ++i) {
        EXPECT_EQ(golden[i].name, computed[i].name);
        if (golden[i].text != computed[i].text) {
            ADD_FAILURE() << computed[i].name << " differs from the golden";
            all_match = false;
        }
    }
    if (!all_match) {
        std::ofstream("format.golden.actual", std::ios::binary)
            << format_golden::render(computed);
    }
}

}  // namespace
}  // namespace diospyros
