#include "trace/symbols.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace u1 {
namespace {

TEST(SymbolTable, InternDedupesAndResolves) {
  SymbolTable table;
  const Symbol a = table.intern("mp3");
  const Symbol b = table.intern("jpg");
  const Symbol a2 = table.intern("mp3");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.resolve(a), "mp3");
  EXPECT_EQ(table.resolve(b), "jpg");
}

TEST(SymbolTable, EmptyStringIsSymbolZero) {
  SymbolTable table;
  EXPECT_EQ(table.intern(""), kEmptySymbol);
  EXPECT_EQ(table.resolve(kEmptySymbol), "");
}

TEST(SymbolTable, ResolveOfGarbageIdIsEmpty) {
  SymbolTable table;
  table.intern("one");
  EXPECT_EQ(table.resolve(Symbol{12345}), "");
  EXPECT_EQ(table.resolve(Symbol{0xffffffffu}), "");
}

TEST(GroupSymbols, EagerModeInternsGlobally) {
  GroupSymbols group;  // eager by default (stand-alone back-ends, tests)
  const Symbol s = group.intern("odt");
  EXPECT_EQ(global_symbols().resolve(s), "odt");
  EXPECT_EQ(group.intern("odt"), s);
  EXPECT_EQ(group.intern(""), kEmptySymbol);
}

TEST(GroupSymbols, DeferredModePublishesInOrder) {
  GroupSymbols group;
  group.set_deferred(true);
  // Local ids are dense and group-private: 1, 2, ... in intern order.
  const Symbol l1 = group.intern("aaa-deferred-test");
  const Symbol l2 = group.intern("bbb-deferred-test");
  EXPECT_EQ(l1, Symbol{1});
  EXPECT_EQ(l2, Symbol{2});
  EXPECT_EQ(group.intern("aaa-deferred-test"), l1);  // cached
  group.publish();
  const std::vector<Symbol>& map = group.mapping();
  ASSERT_EQ(map.size(), 3u);  // [0] = empty symbol
  EXPECT_EQ(map[0], kEmptySymbol);
  EXPECT_EQ(global_symbols().resolve(map[l1]), "aaa-deferred-test");
  EXPECT_EQ(global_symbols().resolve(map[l2]), "bbb-deferred-test");
  // Publishing again is a no-op; interning more extends the mapping.
  group.publish();
  EXPECT_EQ(group.mapping().size(), 3u);
  const Symbol l3 = group.intern("ccc-deferred-test");
  EXPECT_EQ(l3, Symbol{3});
  group.publish();
  ASSERT_EQ(group.mapping().size(), 4u);
  EXPECT_EQ(global_symbols().resolve(group.mapping()[l3]),
            "ccc-deferred-test");
}

TEST(GroupSymbols, DeterministicGlobalIdsAcrossGroups) {
  // Two groups interning overlapping strings: after publishing in group
  // order, identical strings map to one global id — the merge rule the
  // parallel engine relies on at every barrier.
  GroupSymbols g0, g1;
  g0.set_deferred(true);
  g1.set_deferred(true);
  const Symbol a0 = g0.intern("shared-ext-test");
  const Symbol a1 = g1.intern("shared-ext-test");
  g0.publish();
  g1.publish();
  EXPECT_EQ(g0.mapping()[a0], g1.mapping()[a1]);
}

}  // namespace
}  // namespace u1
