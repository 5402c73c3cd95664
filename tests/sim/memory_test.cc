/** @file Tests for SparseMemory and PerfCounters. */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sim/counters.hh"
#include "sim/memory.hh"

namespace
{

using namespace mbias;
using sim::Counter;
using sim::PerfCounters;
using sim::SparseMemory;

TEST(SparseMemory, ZeroFilledByDefault)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x12345678, 8), 0u);
    EXPECT_EQ(m.pagesAllocated(), 0u);
}

TEST(SparseMemory, ReadBackAllSizes)
{
    SparseMemory m;
    m.write(0x1000, 8, 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1000, 2), 0x7788u);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
}

TEST(SparseMemory, LittleEndianLayout)
{
    SparseMemory m;
    m.write(0x2000, 4, 0x0a0b0c0d);
    EXPECT_EQ(m.read(0x2000, 1), 0x0du);
    EXPECT_EQ(m.read(0x2003, 1), 0x0au);
}

TEST(SparseMemory, PageCrossingAccess)
{
    SparseMemory m;
    const Addr a = 4096 - 4;
    m.write(a, 8, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.read(a, 8), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.pagesAllocated(), 2u);
    // The tail bytes landed on the second page.
    EXPECT_EQ(m.read(4096, 4), 0xdeadbeefu);
}

TEST(SparseMemory, PartialOverwrite)
{
    SparseMemory m;
    m.write(0x100, 8, ~0ULL);
    m.write(0x102, 2, 0);
    EXPECT_EQ(m.read(0x100, 8), 0xffffffff0000ffffULL);
}

TEST(SparseMemory, WriteBlock)
{
    SparseMemory m;
    m.writeBlock(4090, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_EQ(m.read(4090, 1), 1u);
    EXPECT_EQ(m.read(4099, 1), 10u);
    EXPECT_EQ(m.pagesAllocated(), 2u);
}

TEST(SparseMemory, WriteBlockMatchesBytewiseWrites)
{
    // Unaligned starts, blocks inside one page, blocks ending exactly
    // on a page boundary, and blocks spanning three pages: the bulk
    // copy must leave the same bytes (and pages) as per-byte writes.
    const Addr starts[] = {0, 1, 4095, 4096, 8190, 3 * 4096 - 7};
    const std::size_t sizes[] = {1, 7, 4096 - 1, 4096, 4096 + 1, 2 * 4096 + 3};
    for (const Addr start : starts) {
        for (const std::size_t size : sizes) {
            std::vector<std::uint8_t> block(size);
            for (std::size_t i = 0; i < size; ++i)
                block[i] = std::uint8_t(i * 37 + start);
            SparseMemory bulk, bytewise;
            bulk.writeBlock(start, block);
            for (std::size_t i = 0; i < size; ++i)
                bytewise.write(start + i, 1, block[i]);
            EXPECT_EQ(bulk.pagesAllocated(), bytewise.pagesAllocated())
                << start << "+" << size;
            for (Addr a = start >= 8 ? start - 8 : 0; a < start + size + 8;
                 ++a)
                ASSERT_EQ(bulk.read(a, 1), bytewise.read(a, 1))
                    << "byte " << a << " of " << start << "+" << size;
        }
    }
    SparseMemory empty;
    empty.writeBlock(123, {});
    EXPECT_EQ(empty.pagesAllocated(), 0u);
}

TEST(SparseMemory, ClearReleases)
{
    SparseMemory m;
    m.write(0x100, 8, 5);
    m.clear();
    EXPECT_EQ(m.pagesAllocated(), 0u);
    EXPECT_EQ(m.read(0x100, 8), 0u);
}

TEST(PerfCounters, IncrementAndReset)
{
    PerfCounters c;
    c.inc(Counter::Loads);
    c.inc(Counter::Loads, 4);
    EXPECT_EQ(c.get(Counter::Loads), 5u);
    c.reset();
    EXPECT_EQ(c.get(Counter::Loads), 0u);
}

TEST(PerfCounters, Rates)
{
    PerfCounters c;
    c.set(Counter::Instructions, 2000);
    c.set(Counter::Cycles, 3000);
    c.set(Counter::DcacheMisses, 10);
    EXPECT_DOUBLE_EQ(c.cpi(), 1.5);
    EXPECT_DOUBLE_EQ(c.ratePerKiloInst(Counter::DcacheMisses), 5.0);
}

TEST(PerfCounters, NamesUniqueAndNonEmpty)
{
    std::set<std::string_view> names;
    for (auto c : sim::allCounters()) {
        auto n = sim::counterName(c);
        EXPECT_FALSE(n.empty());
        EXPECT_TRUE(names.insert(n).second) << n << " duplicated";
    }
    EXPECT_EQ(names.size(), sim::num_counters);
}

TEST(PerfCounters, StrListsEveryCounter)
{
    PerfCounters c;
    const std::string s = c.str();
    for (auto counter : sim::allCounters())
        EXPECT_NE(s.find(std::string(sim::counterName(counter))),
                  std::string::npos);
}

} // namespace
