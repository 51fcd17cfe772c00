// Pins the bytes of format-4 cache envelopes and compile-response
// payloads (tests/format4_golden.h describes the cases). Any change to
// the writers' spacing, quoting, field order or number spelling shows up
// here; such a change needs a new kCacheFormatVersion, not a new golden.
// On a mismatch the computed file is written next to the test binary as
// format4.golden.actual.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "daemon/protocol.h"
#include "format4_golden.h"
#include "service/disk_cache.h"

namespace diospyros {
namespace {

TEST(Format4Golden, EnvelopesAndPayloadsAreByteIdentical)
{
    const format4::TempDir dir("format4_golden");
    std::vector<format4::Record> computed;
    {
        const service::DiskCache disk(dir.path.string());
        for (const format4::Case& c : format4::cases()) {
            const service::CachedEntry entry = format4::entry_for(c);
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

    const std::vector<format4::Record> golden = format4::read_golden();
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
        std::ofstream("format4.golden.actual", std::ios::binary)
            << format4::render(computed);
    }
}

}  // namespace
}  // namespace diospyros
