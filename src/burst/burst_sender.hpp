// Burst Sender (paper §III-A): sits on the VLSU ports of a Spatz core.
//
// The VLSU hands it one "beat" per cycle — the K parallel element accesses
// of a vector memory instruction, each with its pre-allocated ROB slot. The
// sender decides how each element travels:
//
//  * local tile          -> straight into the local banks (full bandwidth);
//  * remote, burst mode,
//    unit-stride load    -> coalesced into a single burst request
//                           (base, len<=K words, never crossing a tile) that
//                           occupies the narrow request channel for ONE cycle
//                           instead of len cycles;
//  * everything else     -> narrow 32-bit requests that serialize one per
//                           cycle at the master port (the baseline behaviour,
//                           and the fallback for strided/indexed accesses and
//                           stores, which the paper does not burst).
//
// The sender owns the burst table that maps a returning wide beat's
// (burst_id, word_offset) back to (VLSU port, ROB slot).
//
// dispatch() is called from the tile-parallel core phase; it may only use
// the calling tile's TileServices (own banks, own master ports — remote
// sends stage their cross-tile effects inside HierNetwork, see network.hpp).
//
// Staging is a set of per-destination FIFO lanes — one per remote
// destination class (master port) and one per local bank — threaded through
// a fixed slab of items, so a cycle costs O(non-empty lanes), not O(staged
// items). This sends exactly what a scan of all staged items in staging
// order would: a class port accepts at most one request per cycle and a
// bank that refuses a push stays full for the rest of dispatch(), so the
// scan sends the oldest item of each free class plus the oldest run of each
// accepting bank, and those resources are independent of one another.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/active_bitmap.hpp"
#include "src/common/inline_vec.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/cluster/tile_services.hpp"
#include "src/memory/mem_types.hpp"
#include "src/spatz/vinstr.hpp"  // kMaxPorts bounds a beat's fan-out

namespace tcdm {

/// Longest burst any configuration can produce (= deepest banks-per-tile we
/// support; bursts never cross tiles).
inline constexpr unsigned kMaxBurstLen = kMaxBurstWords;

struct BurstSenderConfig {
  bool enable_bursts = false;
  /// Extension (paper future work): coalesce constant-stride vector loads
  /// into strided bursts (base, len, stride). Request-side win is identical
  /// to unit-stride bursts; the response-side merge degrades gracefully as
  /// the stride spreads elements over GF-bank segments.
  bool enable_strided_bursts = false;
  /// Extension (design-space ablation): coalesce unit-stride vector stores
  /// into write bursts. The payload still crosses the narrow request channel
  /// at req_grouping_factor words/cycle, which is why the paper leaves
  /// stores narrow — this knob exists to quantify that choice.
  bool enable_store_bursts = false;
  unsigned max_burst_len = 4;   // usually K; capped by banks_per_tile
  unsigned table_size = 64;     // outstanding bursts
  unsigned staging_beats = 4;   // staging capacity in units of K-word beats
};

/// One element access prepared by the VLSU.
struct WordRequest {
  Addr addr = 0;
  bool write = false;
  Word wdata = 0;
  std::uint8_t port = 0;       // VLSU port (== elem % K)
  std::uint16_t rob_slot = 0;  // pre-allocated ROB slot (loads only)
};

/// A cycle's worth of element accesses from one vector memory instruction.
/// At most one element per VLSU port, so the words live in inline storage —
/// beats are built and consumed every issuing cycle on the MP128 hot path,
/// and a heap-backed vector here costs an allocation per core per beat.
struct BeatRequest {
  InlineVec<WordRequest, kMaxPorts> words;
  bool unit_stride_load = false;   // burst-eligible pattern
  bool strided_load = false;       // constant-stride load (strided-burst ext.)
  bool unit_stride_store = false;  // consecutive store (store-burst ext.)
  unsigned stride_words = 1;       // element spacing for strided_load
};

class BurstSender {
 public:
  BurstSender(const BurstSenderConfig& cfg, unsigned num_ports);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);

  /// Room for one more beat? The VLSU checks this before address generation.
  [[nodiscard]] bool can_accept_beat() const noexcept {
    return staged_ <= capacity_items_;
  }

  /// Stage a beat: coalesce burst-eligible runs, enqueue the rest narrow.
  /// Returns false only if the burst table is exhausted (beat not accepted).
  [[nodiscard]] bool accept_beat(const BeatRequest& beat, const AddressMap& map,
                                 TileId home_tile);

  /// Drain staging into local banks and network master ports.
  void dispatch(Cycle now, TileServices& tile);

  // ---- response-side burst table resolution ----
  struct BurstWord {
    std::uint8_t port = 0;
    std::uint16_t rob_slot = 0;
  };
  [[nodiscard]] BurstWord lookup(std::uint32_t id, unsigned word_offset) const;
  /// Mark `n` words of burst `id` as retired; frees the table entry when the
  /// whole burst has returned.
  void note_resolved(std::uint32_t id, unsigned n);

  [[nodiscard]] bool busy() const noexcept { return staged_ != 0 || live_bursts_ != 0; }
  [[nodiscard]] bool staging_empty() const noexcept { return staged_ == 0; }

  /// Back to the just-constructed state (empty staging, all burst ids free).
  void reset();

 private:
  struct PendingItem {
    bool is_burst = false;
    // narrow:
    WordRequest word;
    // burst:
    Addr base = 0;
    std::uint8_t len = 0;
    std::uint8_t stride = 1;  // element spacing in words (strided-burst ext.)
    bool write = false;       // write burst (store-burst ext.)
    std::uint32_t burst_id = 0;
    TileId dst_tile = 0;      // burst: set when staged; narrow: when routed
    std::array<Word, kMaxBurstLen> wdata{};  // write-burst payload
  };

  /// Slab index; kNil ends a list.
  using Slot = std::uint8_t;
  static constexpr Slot kNil = 0xff;
  /// Per-slot links. `next` threads the slot's lane (or the free list);
  /// `older`/`newer` thread every staged item in staging order, so the
  /// newest one still staged — the only one try_extend_tail may grow — is
  /// known without a scan.
  struct Links {
    Slot next = kNil;
    Slot older = kNil;
    Slot newer = kNil;
  };
  /// Intrusive FIFO of slab slots linked through Links::next.
  struct Lane {
    Slot head = kNil;
    Slot tail = kNil;
  };

  struct TableEntry {
    bool valid = false;
    std::uint8_t len = 0;
    std::uint8_t resolved = 0;
    std::array<BurstWord, kMaxBurstLen> words{};
  };

  [[nodiscard]] std::optional<std::uint32_t> alloc_burst();
  /// Try to extend the most recent staged burst with a contiguous run of the
  /// same kind (stride and read/write must match).
  [[nodiscard]] bool try_extend_tail(const WordRequest* run, unsigned n, Addr base,
                                     TileId dst, unsigned stride, bool write,
                                     const AddressMap& map);
  void stage(const PendingItem& item);
  /// Move newly staged items from the inbox to their destination lanes.
  void route_inbox(const AddressMap& map, const Topology& topo, TileId home);
  void lane_push(Lane& lane, Slot s) noexcept;
  Slot lane_pop(Lane& lane) noexcept;
  void release(Slot s) noexcept;

  BurstSenderConfig cfg_;
  unsigned num_ports_;
  std::size_t capacity_items_;
  // Staging slab: can_accept_beat() admits a beat only while
  // staged_ <= capacity_items_, and one beat stages at most kMaxPorts items,
  // so occupancy never exceeds capacity_items_ + kMaxPorts (the slab size,
  // asserted on stage()). Items never move once staged: accept_beat()
  // appends to inbox_, dispatch() routes the inbox to lanes_ — destination
  // classes [0, num_classes_), then local banks — and sends from lane heads.
  // Routing waits for dispatch() because the class needs the tile's
  // topology and narrow items are decoded with the tile's own map.
  std::vector<PendingItem> slab_;
  std::vector<Links> links_;
  Slot free_head_ = kNil;
  Slot newest_ = kNil;         // most recently staged item not yet sent
  Lane inbox_;                 // staged since the last dispatch, unrouted
  std::vector<Lane> lanes_;    // sized by the first route_inbox()
  ActiveBitmap active_lanes_;  // non-empty lanes_
  std::size_t num_classes_ = 0;
  std::size_t staged_ = 0;     // items in the inbox and all lanes
  std::vector<TableEntry> table_;
  std::vector<std::uint32_t> free_ids_;
  unsigned live_bursts_ = 0;
  Counter bursts_sent_;
  Counter burst_words_;
  Counter strided_bursts_sent_;  // subset of bursts_sent_ with stride > 1
  Counter store_bursts_sent_;    // subset of bursts_sent_ that are writes
  Counter narrow_sent_;
  Counter local_words_;
  Counter coalesce_splits_;  // beats split at tile boundaries
};

}  // namespace tcdm
