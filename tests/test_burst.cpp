// Burst machinery unit tests: Burst Sender coalescing rules, table
// bookkeeping and per-destination lane staging (checked against a linear
// scan reference); Burst Manager split/merge with GF segments and
// backpressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <tuple>
#include <vector>

#include "src/burst/burst_manager.hpp"
#include "src/burst/burst_sender.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

// ---------------------------------------------------------------- manager --

class BurstManagerTest : public ::testing::Test {
 protected:
  BurstManagerTest()
      : map_(test::small_address_map()),
        bm_(BurstManagerConfig{4, 4, 8}, map_, 1),
        banks_(test::patterned_banks()) {}

  /// Byte address of (bank-in-tile, row) for tile 1.
  Addr addr_of(unsigned bank_in_tile, unsigned row) const {
    return (row * 16 + 4 + bank_in_tile) * kWordBytes;  // tile 1 = banks 4..7
  }

  AddressMap map_;
  BurstManager bm_;
  std::vector<SpmBank> banks_;
};

TEST_F(BurstManagerTest, SplitsBurstAcrossBanksAndMergesOneBeat) {
  TcdmReq req;
  req.addr = addr_of(0, 5);
  req.len = 4;
  req.src_tile = 3;
  req.tag.owner = ReqOwner::kBurst;
  req.tag.id = 7;
  ASSERT_TRUE(bm_.try_accept(req));
  bm_.issue(banks_);
  // All four banks received one request in the same cycle.
  for (unsigned b = 0; b < 4; ++b) {
    banks_[b].cycle();
    ASSERT_TRUE(banks_[b].resp_ready());
    const BankResp r = banks_[b].resp_pop();
    EXPECT_EQ(r.route.kind, RouteKind::kBurstSegment);
    bm_.fill(r.route, r.data);
  }
  const auto slot = bm_.next_ready_slot();
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(bm_.slot_requester(*slot), 3u);
  const TcdmResp beat = bm_.take_beat(*slot);
  EXPECT_EQ(beat.num_words, 4u);
  EXPECT_EQ(beat.tag.id, 7u);
  EXPECT_EQ(beat.tag.word_offset, 0u);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(beat.data[w], 100 * w + 5);
  EXPECT_FALSE(bm_.busy());
}

TEST_F(BurstManagerTest, Gf2ProducesTwoBeats) {
  BurstManager bm2(BurstManagerConfig{2, 4, 8}, map_, 1);
  TcdmReq req;
  req.addr = addr_of(0, 9);
  req.len = 4;
  req.src_tile = 2;
  req.tag.id = 1;
  ASSERT_TRUE(bm2.try_accept(req));
  bm2.issue(banks_);
  for (unsigned b = 0; b < 4; ++b) {
    banks_[b].cycle();
    const BankResp r = banks_[b].resp_pop();
    bm2.fill(r.route, r.data);
  }
  unsigned beats = 0;
  unsigned words = 0;
  while (const auto s = bm2.next_ready_slot()) {
    const TcdmResp beat = bm2.take_beat(*s);
    EXPECT_EQ(beat.num_words, 2u);
    words += beat.num_words;
    ++beats;
  }
  EXPECT_EQ(beats, 2u);
  EXPECT_EQ(words, 4u);
}

TEST_F(BurstManagerTest, UnalignedBurstSpansSegments) {
  // Burst of 3 starting at bank 1 with GF2: segments [1], [2,3].
  BurstManager bm2(BurstManagerConfig{2, 4, 8}, map_, 1);
  TcdmReq req;
  req.addr = addr_of(1, 0);
  req.len = 3;
  req.src_tile = 0;
  ASSERT_TRUE(bm2.try_accept(req));
  bm2.issue(banks_);
  for (unsigned b = 1; b <= 3; ++b) {
    banks_[b].cycle();
    const BankResp r = banks_[b].resp_pop();
    bm2.fill(r.route, r.data);
  }
  std::vector<unsigned> beat_sizes;
  while (const auto s = bm2.next_ready_slot()) {
    beat_sizes.push_back(bm2.take_beat(*s).num_words);
  }
  std::sort(beat_sizes.begin(), beat_sizes.end());
  EXPECT_EQ(beat_sizes, (std::vector<unsigned>{1, 2}));
}

TEST_F(BurstManagerTest, FifoBackpressureWhenFull) {
  TcdmReq req;
  req.addr = addr_of(0, 0);
  req.len = 4;
  for (unsigned i = 0; i < 4; ++i) EXPECT_TRUE(bm_.try_accept(req));
  EXPECT_FALSE(bm_.try_accept(req));  // FIFO depth 4
}

TEST_F(BurstManagerTest, StalledBankRetriesNextCycle) {
  // Pre-fill bank 2's input queue so the burst cannot fully issue.
  BankReq filler;
  filler.row = 0;
  ASSERT_TRUE(banks_[2].try_push(filler));
  ASSERT_TRUE(banks_[2].try_push(filler));
  TcdmReq req;
  req.addr = addr_of(0, 1);
  req.len = 4;
  ASSERT_TRUE(bm_.try_accept(req));
  bm_.issue(banks_);    // words 0,1 issue; word 2 blocked
  EXPECT_TRUE(bm_.busy());
  banks_[2].cycle();    // frees a slot
  (void)banks_[2].resp_pop();
  bm_.issue(banks_);    // words 2,3 issue now
  banks_[2].cycle();
  (void)banks_[2].resp_pop();  // filler
  // The burst's four bank requests eventually all arrive.
  unsigned burst_words = 0;
  for (unsigned b = 0; b < 4; ++b) {
    for (unsigned k = 0; k < 4; ++k) {
      banks_[b].cycle();
      if (banks_[b].resp_ready()) {
        const BankResp r = banks_[b].resp_pop();
        if (r.route.kind == RouteKind::kBurstSegment) {
          bm_.fill(r.route, r.data);
          ++burst_words;
        }
      }
    }
  }
  EXPECT_EQ(burst_words, 4u);
  EXPECT_TRUE(bm_.next_ready_slot().has_value());
}

// ----------------------------------------------------------------- sender --

class FakeTile final : public TileServices {
 public:
  FakeTile(StatsRegistry& stats)
      : map_(test::small_address_map()),
        topo_(test::flat4_topology()),
        // Deep master FIFOs: these tests dispatch without running the
        // network cycle that would normally drain the ports.
        net_(topo_, NetworkConfig{.master_extra_slots = 8}, stats) {}

  bool try_local_push(unsigned bank, const BankReq& req) override {
    local_pushes.push_back({bank, req});
    return accept_local && ((full_banks >> bank) & 1) == 0;
  }
  HierNetwork& net() override { return net_; }
  const AddressMap& map() const override { return map_; }
  TileId tile_id() const override { return 0; }

  /// Cross-tile network effects (wait-list registration, shared counters)
  /// are staged per source tile for tile-parallel stepping; commit them the
  /// way the cluster does at a phase boundary before inspecting stats.
  void commit_network() { net_.commit_deferred(); }

  std::vector<std::pair<unsigned, BankReq>> local_pushes;  // every attempt
  bool accept_local = true;
  std::uint32_t full_banks = 0;  // bitmask of banks refusing pushes
  AddressMap map_;
  Topology topo_;
  HierNetwork net_;
};

BeatRequest unit_beat(Addr base, unsigned n, bool load = true) {
  BeatRequest b;
  b.unit_stride_load = load;
  for (unsigned i = 0; i < n; ++i) {
    WordRequest w;
    w.addr = base + i * kWordBytes;
    w.port = static_cast<std::uint8_t>(i % 4);
    w.rob_slot = static_cast<std::uint16_t>(i);
    w.write = !load;
    b.words.push_back(w);
  }
  return b;
}

TEST(BurstSender, CoalescesRemoteUnitStrideLoad) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  // Tile 1's words: addresses 16..31 bytes (banks 4..7).
  ASSERT_TRUE(sender.accept_beat(unit_beat(16, 4), tile.map(), 0));
  sender.dispatch(0, tile);
  EXPECT_TRUE(tile.local_pushes.empty());
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 1.0);   // one burst request
  EXPECT_EQ(stats.value("network.req_words"), 4.0);  // carrying 4 words
  // Burst table resolves ports/slots by word offset.
  EXPECT_EQ(sender.lookup(0, 2).port, 2u);
  EXPECT_EQ(sender.lookup(0, 2).rob_slot, 2u);
  sender.note_resolved(0, 4);
  EXPECT_FALSE(sender.busy());
}

TEST(BurstSender, LocalBeatsBypassTheNetwork) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  ASSERT_TRUE(sender.accept_beat(unit_beat(0, 4), tile.map(), 0));  // tile 0
  sender.dispatch(0, tile);
  EXPECT_EQ(tile.local_pushes.size(), 4u);
  EXPECT_EQ(stats.value("network.req_sent"), 0.0);
}

TEST(BurstSender, DisabledModeSendsNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = false}, 4);
  ASSERT_TRUE(sender.accept_beat(unit_beat(16, 4), tile.map(), 0));
  sender.dispatch(0, tile);   // class port limits to 1/cycle
  sender.dispatch(1, tile);
  sender.dispatch(2, tile);
  sender.dispatch(3, tile);
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);  // serialized narrow words
  EXPECT_EQ(stats.value("network.req_words"), 4.0);
}

TEST(BurstSender, StoresNeverBurst) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  BeatRequest b = unit_beat(16, 4, /*load=*/false);
  b.unit_stride_load = false;  // stores are not burst-eligible
  ASSERT_TRUE(sender.accept_beat(b, tile.map(), 0));
  for (Cycle c = 0; c < 4; ++c) sender.dispatch(c, tile);
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);
}

TEST(BurstSender, SplitsAtTileBoundary) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  // Words 6..9 span tile 1 (banks 6,7) and tile 2 (banks 8,9).
  ASSERT_TRUE(sender.accept_beat(unit_beat(24, 4), tile.map(), 0));
  sender.dispatch(0, tile);
  // Two bursts of two words each; distinct classes -> both sent in cycle 0.
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 2.0);
  EXPECT_EQ(stats.value("network.req_words"), 4.0);
}

TEST(BurstSender, ExtendsTailAcrossBeats) {
  StatsRegistry stats;
  FakeTile tile(stats);
  // Allow 8-word bursts (banks_per_tile is 4 in FakeTile, so use a map with
  // 8 banks/tile to permit extension).
  BurstSender sender({.enable_bursts = true, .max_burst_len = 8}, 4);
  AddressMap map8(16, 8, 64);
  // Tile 1 = banks 8..15 -> words 8..15. Two contiguous 4-word beats.
  ASSERT_TRUE(sender.accept_beat(unit_beat(32, 4), map8, 0));
  ASSERT_TRUE(sender.accept_beat(unit_beat(48, 4), map8, 0));
  sender.dispatch(0, tile);  // FakeTile's own map differs; only count sends
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 1.0);
  EXPECT_EQ(stats.value("network.req_words"), 8.0);
  EXPECT_EQ(sender.lookup(0, 7).rob_slot, 3u);  // second beat's slots appended
}

TEST(BurstSender, TableExhaustionDegradesToNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4, .table_size = 1,
                      .staging_beats = 8},
                     4);
  ASSERT_TRUE(sender.accept_beat(unit_beat(16, 4), tile.map(), 0));  // takes the entry
  ASSERT_TRUE(sender.accept_beat(unit_beat(32, 4), tile.map(), 0));  // degrades
  for (Cycle c = 0; c < 8; ++c) sender.dispatch(c, tile);
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 5.0);  // 1 burst + 4 narrow
}

// ----------------------------------------------------------- lane staging --

/// Sink for response beats the lane tests never produce.
class NullSink final : public RspSink {
 public:
  void deliver_rsp(const TcdmResp&, Cycle) override {}
};

/// Move every request parked in a slave queue out of `net`, in (dst, class)
/// order, so the tests can see what reached which tile.
std::vector<TcdmReq> drain_slaves(HierNetwork& net) {
  std::vector<TcdmReq> out;
  const Topology& topo = net.topology();
  for (TileId dst = 0; dst < topo.num_tiles(); ++dst) {
    for (std::uint8_t cls = 0; cls < topo.num_classes(); ++cls) {
      while (!net.slave_empty(dst, cls)) out.push_back(net.slave_pop(dst, cls));
    }
  }
  return out;
}

WordRequest word_at(Addr addr, std::uint8_t port, std::uint16_t rob_slot) {
  WordRequest w;
  w.addr = addr;
  w.port = port;
  w.rob_slot = rob_slot;
  return w;
}

TEST(BurstSenderLanes, BlockedClassDoesNotHoldBackOtherClass) {
  StatsRegistry stats;
  FakeTile tile(stats);
  const std::uint8_t cls1 = tile.topo_.class_of(0, 1);
  const std::uint8_t cls2 = tile.topo_.class_of(0, 2);
  ASSERT_NE(cls1, cls2);
  // Occupy tile 1's class port for cycle 0.
  TcdmReq filler;
  filler.addr = 16;
  tile.net_.send_req(0, 1, filler, 0);
  ASSERT_FALSE(tile.net_.can_send_req(0, cls1, 0));

  BurstSender sender({.enable_bursts = false}, 4);
  BeatRequest beat;
  beat.words.push_back(word_at(16, 0, 0));  // tile 1: blocked
  beat.words.push_back(word_at(32, 1, 0));  // tile 2: staged after it
  ASSERT_TRUE(sender.accept_beat(beat, tile.map(), 0));
  sender.dispatch(0, tile);
  EXPECT_FALSE(tile.net_.can_send_req(0, cls2, 0));  // tile 2's word went out
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 2.0);
  EXPECT_FALSE(sender.staging_empty());

  sender.dispatch(1, tile);
  tile.commit_network();
  EXPECT_EQ(stats.value("network.req_sent"), 3.0);
  EXPECT_TRUE(sender.staging_empty());
}

TEST(BurstSenderLanes, FullBankDoesNotHoldBackOtherBanks) {
  StatsRegistry stats;
  FakeTile tile(stats);
  tile.full_banks = 1u << 0;
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  BeatRequest beat;
  beat.words.push_back(word_at(0, 0, 0));   // bank 0, row 0: refused
  beat.words.push_back(word_at(64, 1, 0));  // bank 0, row 1: queued behind it
  beat.words.push_back(word_at(4, 2, 0));   // bank 1
  beat.words.push_back(word_at(8, 3, 0));   // bank 2
  ASSERT_TRUE(sender.accept_beat(beat, tile.map(), 0));
  sender.dispatch(0, tile);
  std::vector<unsigned> accepted;
  for (const auto& [bank, req] : tile.local_pushes) {
    if (bank != 0) accepted.push_back(bank);
  }
  EXPECT_EQ(accepted, (std::vector<unsigned>{1, 2}));
  EXPECT_FALSE(sender.staging_empty());

  // Once bank 0 has room, its run goes out oldest first.
  tile.full_banks = 0;
  tile.local_pushes.clear();
  sender.dispatch(1, tile);
  ASSERT_EQ(tile.local_pushes.size(), 2u);
  EXPECT_EQ(tile.local_pushes[0].first, 0u);
  EXPECT_EQ(tile.local_pushes[0].second.row, 0u);
  EXPECT_EQ(tile.local_pushes[1].second.row, 1u);
  EXPECT_TRUE(sender.staging_empty());
}

TEST(BurstSenderLanes, KeepsFifoOrderWithinAClass) {
  StatsRegistry stats;
  FakeTile tile(stats);
  NullSink sink;
  BurstSender sender({.enable_bursts = false}, 4);
  ASSERT_TRUE(sender.accept_beat(unit_beat(16, 4), tile.map(), 0));  // tile 1
  std::vector<Addr> arrived;
  for (Cycle c = 0; c < 16; ++c) {
    sender.dispatch(c, tile);
    tile.net_.cycle(c, sink);
    for (const TcdmReq& r : drain_slaves(tile.net_)) arrived.push_back(r.addr);
  }
  EXPECT_EQ(arrived, (std::vector<Addr>{16, 20, 24, 28}));
}

TEST(BurstSenderLanes, TailExtensionTargetsNewestUnsentItem) {
  StatsRegistry stats;
  FakeTile tile(stats);
  tile.map_ = AddressMap(32, 8, 64);  // 4 tiles x 8 banks: room for 8-word bursts
  const AddressMap& map = tile.map();
  ASSERT_NE(tile.topo_.class_of(0, 1), tile.topo_.class_of(0, 2));
  TcdmReq filler;
  filler.addr = 32;
  tile.net_.send_req(0, 1, filler, 0);  // tile 1's class port is busy in cycle 0

  BurstSender sender({.enable_bursts = true, .max_burst_len = 8}, 4);
  // Words 8..11 (tile 1) then 16..19 (tile 2): two bursts, ids 0 and 1.
  ASSERT_TRUE(sender.accept_beat(unit_beat(32, 4), map, 0));
  ASSERT_TRUE(sender.accept_beat(unit_beat(64, 4), map, 0));
  sender.dispatch(0, tile);  // the tile-2 burst goes; the tile-1 burst waits
  // Words 12..15 continue the waiting tile-1 burst, which is now the newest
  // staged item although the tile-2 burst was staged after it.
  ASSERT_TRUE(sender.accept_beat(unit_beat(48, 4), map, 0));
  sender.dispatch(1, tile);
  tile.commit_network();
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(stats.value("network.req_sent"), 3.0);         // filler + 2 bursts
  EXPECT_EQ(stats.value("network.req_words"), 1.0 + 4.0 + 8.0);
  EXPECT_EQ(sender.lookup(0, 7).rob_slot, 3u);  // third beat appended to burst 0
  sender.note_resolved(1, 4);
  sender.note_resolved(0, 8);
  EXPECT_FALSE(sender.busy());  // no third burst id was taken
}

// ------------------------------------------- differential: lanes vs. scan --

/// The staging BurstSender used before per-destination lanes, kept as an
/// executable specification: one FIFO of staged items, every one of them
/// retried in staging order each cycle, unsent ones re-queued in order.
class ScanSender {
 public:
  ScanSender(const BurstSenderConfig& cfg, unsigned num_ports)
      : cfg_(cfg),
        capacity_items_((cfg.staging_beats > 0 ? cfg.staging_beats - 1 : 0) * num_ports),
        table_(cfg.table_size) {
    for (unsigned i = 0; i < cfg.table_size; ++i) free_ids_.push_back(cfg.table_size - 1 - i);
  }

  bool can_accept_beat() const { return staging_.size() <= capacity_items_; }
  bool staging_empty() const { return staging_.empty(); }
  bool busy() const { return !staging_.empty() || live_bursts_ != 0; }
  BurstSender::BurstWord lookup(std::uint32_t id, unsigned off) const {
    return table_.at(id).words[off];
  }
  void note_resolved(std::uint32_t id, unsigned n) {
    Entry& e = table_.at(id);
    e.resolved += n;
    if (e.resolved == e.len) {
      e.valid = false;
      free_ids_.push_back(id);
      --live_bursts_;
    }
  }

  bool accept_beat(const BeatRequest& beat, const AddressMap& map, TileId home) {
    const bool unit_load = cfg_.enable_bursts && beat.unit_stride_load;
    const bool strided_load = cfg_.enable_bursts && cfg_.enable_strided_bursts &&
                              beat.strided_load && beat.stride_words >= 1 &&
                              beat.stride_words < map.banks_per_tile();
    const bool unit_store =
        cfg_.enable_bursts && cfg_.enable_store_bursts && beat.unit_stride_store;
    if (!unit_load && !strided_load && !unit_store) {
      for (const WordRequest& w : beat.words) push_narrow(w);
      return true;
    }
    const unsigned stride = strided_load ? beat.stride_words : 1;
    const bool write = unit_store;
    const std::size_t n = beat.words.size();
    for (std::size_t i = 0; i < n;) {
      const Addr base = beat.words[i].addr;
      const DecodedAddr dec = map.decode(base);
      std::size_t run = 1;
      while (i + run < n && run < cfg_.max_burst_len &&
             dec.bank_in_tile + run * stride < map.banks_per_tile()) {
        ++run;
      }
      if (dec.tile == home || run == 1) {
        for (std::size_t j = 0; j < run; ++j) push_narrow(beat.words[i + j]);
      } else if (extend_tail(&beat.words[i], static_cast<unsigned>(run), base, dec.tile,
                             stride, write, map)) {
      } else if (write) {
        Item item;
        item.is_burst = true;
        item.write = true;
        item.base = base;
        item.len = static_cast<unsigned>(run);
        item.dst_tile = dec.tile;
        for (std::size_t j = 0; j < run; ++j) item.wdata[j] = beat.words[i + j].wdata;
        staging_.push_back(item);
      } else if (free_ids_.empty()) {
        for (std::size_t j = 0; j < run; ++j) push_narrow(beat.words[i + j]);
      } else {
        const std::uint32_t id = free_ids_.back();
        free_ids_.pop_back();
        ++live_bursts_;
        Entry& e = table_[id];
        e = Entry{};
        e.valid = true;
        e.len = static_cast<unsigned>(run);
        for (std::size_t j = 0; j < run; ++j) {
          e.words[j] = {beat.words[i + j].port, beat.words[i + j].rob_slot};
        }
        Item item;
        item.is_burst = true;
        item.base = base;
        item.len = static_cast<unsigned>(run);
        item.stride = stride;
        item.burst_id = id;
        item.dst_tile = dec.tile;
        staging_.push_back(item);
      }
      i += run;
    }
    return true;
  }

  void dispatch(Cycle now, TileServices& tile) {
    const AddressMap& map = tile.map();
    const TileId home = tile.tile_id();
    HierNetwork& net = tile.net();
    std::deque<Item> unsent;
    for (const Item& it : staging_) {
      bool sent = false;
      if (!it.is_burst) {
        const DecodedAddr dec = map.decode(it.word.addr);
        if (dec.tile == home) {
          BankReq br;
          br.row = dec.row;
          br.write = it.word.write;
          br.wdata = it.word.wdata;
          br.route.kind = RouteKind::kLocalVector;
          br.route.port = it.word.port;
          br.route.rob_slot = it.word.rob_slot;
          br.route.src_tile = home;
          sent = tile.try_local_push(dec.bank_in_tile, br);
        } else if (net.can_send_req(home, net.topology().class_of(home, dec.tile), now)) {
          TcdmReq req;
          req.addr = it.word.addr;
          req.write = it.word.write;
          req.wdata = it.word.wdata;
          req.src_tile = home;
          req.tag.owner = ReqOwner::kVecNarrow;
          req.tag.port = it.word.port;
          req.tag.rob_slot = it.word.rob_slot;
          net.send_req(home, dec.tile, req, now);
          sent = true;
        }
      } else if (net.can_send_req(home, net.topology().class_of(home, it.dst_tile), now)) {
        TcdmReq req;
        req.addr = it.base;
        req.len = static_cast<std::uint8_t>(it.len);
        req.stride = static_cast<std::uint8_t>(it.stride);
        req.write = it.write;
        req.src_tile = home;
        req.tag.owner = ReqOwner::kBurst;
        req.tag.id = it.burst_id;
        if (it.write) req.burst_wdata = it.wdata;
        net.send_req(home, it.dst_tile, req, now);
        sent = true;
      }
      if (!sent) unsent.push_back(it);
    }
    staging_ = std::move(unsent);
  }

 private:
  struct Item {
    bool is_burst = false;
    WordRequest word;
    Addr base = 0;
    unsigned len = 0;
    unsigned stride = 1;
    bool write = false;
    std::uint32_t burst_id = 0;
    TileId dst_tile = 0;
    std::array<Word, kMaxBurstLen> wdata{};
  };
  struct Entry {
    bool valid = false;
    unsigned len = 0;
    unsigned resolved = 0;
    std::array<BurstSender::BurstWord, kMaxBurstLen> words{};
  };

  void push_narrow(const WordRequest& w) {
    Item item;
    item.word = w;
    staging_.push_back(item);
  }

  bool extend_tail(const WordRequest* run, unsigned n, Addr base, TileId dst, unsigned stride,
                   bool write, const AddressMap& map) {
    if (staging_.empty()) return false;
    Item& tail = staging_.back();
    if (!tail.is_burst || tail.dst_tile != dst || tail.stride != stride || tail.write != write) {
      return false;
    }
    if (tail.base + static_cast<Addr>(tail.len) * stride * kWordBytes != base) return false;
    if (tail.len + n > cfg_.max_burst_len) return false;
    if (map.bank_in_tile(tail.base) + (tail.len + n - 1) * stride >= map.banks_per_tile()) {
      return false;
    }
    for (unsigned i = 0; i < n; ++i) {
      if (write) {
        tail.wdata[tail.len + i] = run[i].wdata;
      } else {
        table_[tail.burst_id].words[tail.len + i] = {run[i].port, run[i].rob_slot};
      }
    }
    if (!write) table_[tail.burst_id].len = tail.len + n;
    tail.len += n;
    return true;
  }

  BurstSenderConfig cfg_;
  std::size_t capacity_items_;
  std::deque<Item> staging_;
  std::vector<Entry> table_;
  std::vector<std::uint32_t> free_ids_;
  unsigned live_bursts_ = 0;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Tile whose banks take a pseudo-random number (0-2) of pushes per cycle —
/// a pure function of (cycle, bank), so both senders see the same banks —
/// and which logs every accepted push.
class DiffTile final : public TileServices {
 public:
  DiffTile(StatsRegistry& stats, const AddressMap& map)
      : map_(map), topo_(test::flat4_topology()), net_(topo_, NetworkConfig{}, stats),
        taken_(map.banks_per_tile()) {}

  bool try_local_push(unsigned bank, const BankReq& req) override {
    if (taken_[bank] >= mix(now_ * 64 + bank) % 3) return false;
    ++taken_[bank];
    pushes.emplace_back(bank, req.row, req.route.port, req.route.rob_slot, req.write,
                        req.wdata);
    return true;
  }
  HierNetwork& net() override { return net_; }
  const AddressMap& map() const override { return map_; }
  TileId tile_id() const override { return 0; }

  void begin_cycle(Cycle now) {
    now_ = now;
    std::fill(taken_.begin(), taken_.end(), 0u);
    pushes.clear();
  }

  using Push = std::tuple<unsigned, std::uint32_t, std::uint8_t, std::uint16_t, bool, Word>;
  std::vector<Push> pushes;  // this cycle's accepted pushes, in call order
  AddressMap map_;
  Topology topo_;
  HierNetwork net_;

 private:
  Cycle now_ = 0;
  std::vector<unsigned> taken_;
};

/// Random beat generator: unit-stride / strided loads and stores, or
/// scattered narrow accesses, at any address (local or remote). Half the
/// time a unit-stride or strided beat continues the previous one, as the
/// beats of one long vector access do, so bursts get extended across beats.
class BeatStream {
 public:
  BeatStream(std::uint32_t seed, const AddressMap& map, unsigned ports)
      : rng_(seed), words_(map.num_banks() * map.bank_words()), ports_(ports) {}

  std::mt19937& rng() { return rng_; }

  BeatRequest next() {
    const unsigned n = 1 + rng_() % ports_;
    if (kind_ > 2 || rng_() % 2 == 0 || next_word_ + n * stride_ >= words_) {
      kind_ = rng_() % 5;
      stride_ = kind_ == 1 ? 1 + rng_() % 5 : 1;
      next_word_ = rng_() % (words_ - n * stride_);
    }
    BeatRequest beat;
    beat.unit_stride_load = kind_ == 0;
    beat.strided_load = kind_ == 1;
    beat.stride_words = stride_;
    beat.unit_stride_store = kind_ == 2;
    for (unsigned i = 0; i < n; ++i) {
      WordRequest w;
      const unsigned word = kind_ > 2 ? rng_() % words_ : next_word_ + i * stride_;
      w.addr = static_cast<Addr>(word) * kWordBytes;
      w.write = kind_ == 2 || (kind_ == 4 && rng_() % 2 == 0);
      w.wdata = static_cast<Word>(rng_());
      w.port = static_cast<std::uint8_t>(i);
      w.rob_slot = static_cast<std::uint16_t>(rng_() % 64);
      beat.words.push_back(w);
    }
    next_word_ += n * stride_;
    return beat;
  }

 private:
  std::mt19937 rng_;
  unsigned words_;
  unsigned ports_;
  unsigned kind_ = 4;  // 0 load, 1 strided load, 2 store, 3-4 scattered
  unsigned stride_ = 1;
  unsigned next_word_ = 0;
};

void run_differential(const BurstSenderConfig& cfg, std::uint32_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  constexpr unsigned kPorts = 4;
  const AddressMap map(32, 8, 64);  // 4 tiles x 8 banks
  StatsRegistry lane_stats;
  StatsRegistry scan_stats;
  DiffTile lane_tile(lane_stats, map);
  DiffTile scan_tile(scan_stats, map);
  BurstSender lanes(cfg, kPorts);
  ScanSender scan(cfg, kPorts);
  NullSink sink;
  BeatStream beats(seed, map, kPorts);
  std::mt19937& rng = beats.rng();
  // (cycle, burst id, words) read bursts to retire once delivered.
  std::vector<std::tuple<Cycle, std::uint32_t, unsigned>> pending;
  const unsigned classes = lane_tile.topo_.num_classes();

  for (Cycle now = 0; now < 3000; ++now) {
    ASSERT_EQ(lanes.can_accept_beat(), scan.can_accept_beat()) << "cycle " << now;
    if (now < 2500 && rng() % 4 != 0 && lanes.can_accept_beat()) {
      const BeatRequest beat = beats.next();
      ASSERT_EQ(lanes.accept_beat(beat, map, 0), scan.accept_beat(beat, map, 0));
    }
    lane_tile.begin_cycle(now);
    scan_tile.begin_cycle(now);
    lanes.dispatch(now, lane_tile);
    scan.dispatch(now, scan_tile);

    // Local pushes: per bank, the same requests in the same order.
    const auto by_bank = [](std::vector<DiffTile::Push> v) {
      std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
        return std::get<0>(a) < std::get<0>(b);
      });
      return v;
    };
    ASSERT_EQ(by_bank(lane_tile.pushes), by_bank(scan_tile.pushes)) << "cycle " << now;
    // Remote sends: the same class ports taken this cycle...
    for (unsigned c = 0; c < classes; ++c) {
      const auto cls = static_cast<std::uint8_t>(c);
      ASSERT_EQ(lane_tile.net_.can_send_req(0, cls, now), scan_tile.net_.can_send_req(0, cls, now))
          << "cycle " << now << " class " << c;
    }
    lane_tile.net_.commit_deferred();
    scan_tile.net_.commit_deferred();
    ASSERT_EQ(lane_stats.value("network.req_sent"), scan_stats.value("network.req_sent"))
        << "cycle " << now;
    ASSERT_EQ(lane_stats.value("network.req_words"), scan_stats.value("network.req_words"))
        << "cycle " << now;
    ASSERT_EQ(lanes.staging_empty(), scan.staging_empty()) << "cycle " << now;

    // ...and the same requests arriving at the same slaves in the same cycles.
    lane_tile.net_.cycle(now, sink);
    scan_tile.net_.cycle(now, sink);
    if (mix(now) % 3 != 0) {  // slaves back up on the other cycles
      const std::vector<TcdmReq> got = drain_slaves(lane_tile.net_);
      const std::vector<TcdmReq> want = drain_slaves(scan_tile.net_);
      ASSERT_EQ(got.size(), want.size()) << "cycle " << now;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::tie(got[i].addr, got[i].len, got[i].stride, got[i].write, got[i].wdata,
                           got[i].tag.owner, got[i].tag.id, got[i].tag.port,
                           got[i].tag.rob_slot),
                  std::tie(want[i].addr, want[i].len, want[i].stride, want[i].write,
                           want[i].wdata, want[i].tag.owner, want[i].tag.id, want[i].tag.port,
                           want[i].tag.rob_slot))
            << "cycle " << now << " arrival " << i;
        if (got[i].write && got[i].len > 1) {
          ASSERT_EQ(got[i].burst_wdata, want[i].burst_wdata) << "cycle " << now;
        }
        if (got[i].tag.owner == ReqOwner::kBurst && !got[i].write) {
          pending.emplace_back(now + rng() % 8, got[i].tag.id, got[i].len);
        }
      }
    }
    // Retire delivered read bursts after a random delay, checking that both
    // tables map every word to the same (port, ROB slot).
    for (auto it = pending.begin(); it != pending.end();) {
      const auto [at, id, len] = *it;
      if (at > now) {
        ++it;
        continue;
      }
      for (unsigned w = 0; w < len; ++w) {
        ASSERT_EQ(lanes.lookup(id, w).port, scan.lookup(id, w).port);
        ASSERT_EQ(lanes.lookup(id, w).rob_slot, scan.lookup(id, w).rob_slot);
      }
      lanes.note_resolved(id, len);
      scan.note_resolved(id, len);
      it = pending.erase(it);
    }
    ASSERT_EQ(lanes.busy(), scan.busy()) << "cycle " << now;
  }
  EXPECT_TRUE(lanes.staging_empty());
}

TEST(BurstSenderLanes, MatchesLinearScanReference) {
  // Tight staging and a tiny burst table force blocking, bypassing and
  // table-exhaustion fallbacks; 8-word bursts exercise tail extension.
  const BurstSenderConfig configs[] = {
      {.enable_bursts = false, .staging_beats = 2},
      {.enable_bursts = true, .max_burst_len = 4, .table_size = 2, .staging_beats = 2},
      {.enable_bursts = true, .enable_strided_bursts = true, .enable_store_bursts = true,
       .max_burst_len = 8, .table_size = 3, .staging_beats = 3},
      {.enable_bursts = true, .enable_strided_bursts = true, .enable_store_bursts = true,
       .max_burst_len = 8, .table_size = 64, .staging_beats = 4},
  };
  for (const BurstSenderConfig& cfg : configs) {
    for (std::uint32_t seed = 1; seed <= 4; ++seed) run_differential(cfg, seed);
  }
}

}  // namespace
}  // namespace tcdm
