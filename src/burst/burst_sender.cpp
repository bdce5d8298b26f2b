#include "src/burst/burst_sender.hpp"

#include <cassert>
#include <stdexcept>

namespace tcdm {

namespace {
std::size_t staging_capacity_items(const BurstSenderConfig& cfg, unsigned num_ports) {
  // can_accept_beat() is checked before staging a beat of up to K words.
  return static_cast<std::size_t>(cfg.staging_beats > 0 ? cfg.staging_beats - 1 : 0) *
         num_ports;
}
}  // namespace

BurstSender::BurstSender(const BurstSenderConfig& cfg, unsigned num_ports)
    : cfg_(cfg),
      num_ports_(num_ports),
      capacity_items_(staging_capacity_items(cfg, num_ports)),
      slab_(staging_capacity_items(cfg, num_ports) + kMaxPorts),
      links_(slab_.size()),
      table_(cfg.table_size) {
  assert(num_ports_ >= 1);
  assert(cfg_.max_burst_len <= kMaxBurstLen);
  if (slab_.size() >= kNil) {
    throw std::invalid_argument("BurstSender: staging_beats x ports exceeds the staging slab");
  }
  free_ids_.reserve(cfg_.table_size);
  reset();
}

void BurstSender::reset() {
  for (std::size_t s = 0; s < slab_.size(); ++s) {
    links_[s] = Links{.next = s + 1 < slab_.size() ? static_cast<Slot>(s + 1) : kNil};
  }
  free_head_ = 0;
  newest_ = kNil;
  inbox_ = Lane{};
  for (Lane& lane : lanes_) lane = Lane{};
  active_lanes_.clear_all();
  staged_ = 0;
  for (TableEntry& e : table_) e = TableEntry{};
  free_ids_.clear();
  for (unsigned i = 0; i < cfg_.table_size; ++i) {
    free_ids_.push_back(cfg_.table_size - 1 - i);
  }
  live_bursts_ = 0;
}

void BurstSender::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  bursts_sent_ = reg.counter(prefix + ".bursts_sent");
  burst_words_ = reg.counter(prefix + ".burst_words");
  strided_bursts_sent_ = reg.counter(prefix + ".strided_bursts_sent");
  store_bursts_sent_ = reg.counter(prefix + ".store_bursts_sent");
  narrow_sent_ = reg.counter(prefix + ".narrow_remote_words");
  local_words_ = reg.counter(prefix + ".local_words");
  coalesce_splits_ = reg.counter(prefix + ".tile_boundary_splits");
}

std::optional<std::uint32_t> BurstSender::alloc_burst() {
  if (free_ids_.empty()) return std::nullopt;
  const std::uint32_t id = free_ids_.back();
  free_ids_.pop_back();
  ++live_bursts_;
  return id;
}

void BurstSender::lane_push(Lane& lane, Slot s) noexcept {
  links_[s].next = kNil;
  if (lane.tail == kNil) {
    lane.head = s;
  } else {
    links_[lane.tail].next = s;
  }
  lane.tail = s;
}

BurstSender::Slot BurstSender::lane_pop(Lane& lane) noexcept {
  const Slot s = lane.head;
  lane.head = links_[s].next;
  if (lane.head == kNil) lane.tail = kNil;
  return s;
}

void BurstSender::release(Slot s) noexcept {
  Links& l = links_[s];
  if (l.older != kNil) links_[l.older].newer = l.newer;
  if (l.newer != kNil) {
    links_[l.newer].older = l.older;
  } else {
    newest_ = l.older;
  }
  l = Links{.next = free_head_};
  free_head_ = s;
  --staged_;
}

void BurstSender::stage(const PendingItem& item) {
  assert(free_head_ != kNil && "BurstSender staging capacity bound violated");
  const Slot s = free_head_;
  free_head_ = links_[s].next;
  slab_[s] = item;
  links_[s].older = newest_;
  if (newest_ != kNil) links_[newest_].newer = s;
  newest_ = s;
  lane_push(inbox_, s);
  ++staged_;
}

bool BurstSender::try_extend_tail(const WordRequest* run, unsigned n, Addr base, TileId dst,
                                  unsigned stride, bool write, const AddressMap& map) {
  if (newest_ == kNil) return false;
  PendingItem& tail = slab_[newest_];
  if (!tail.is_burst || tail.dst_tile != dst) return false;
  if (tail.stride != stride || tail.write != write) return false;
  if (tail.base + static_cast<Addr>(tail.len) * stride * kWordBytes != base) return false;
  if (tail.len + n > cfg_.max_burst_len) return false;
  // The extended span's last element must still land inside the tile.
  if (map.bank_in_tile(tail.base) + (tail.len + n - 1) * stride >= map.banks_per_tile()) {
    return false;
  }
  if (write) {
    for (unsigned i = 0; i < n; ++i) tail.wdata[tail.len + i] = run[i].wdata;
  } else {
    TableEntry& e = table_[tail.burst_id];
    assert(e.valid);
    for (unsigned i = 0; i < n; ++i) {
      e.words[tail.len + i] = BurstWord{run[i].port, run[i].rob_slot};
    }
    e.len = static_cast<std::uint8_t>(tail.len + n);
  }
  tail.len = static_cast<std::uint8_t>(tail.len + n);
  return true;
}

bool BurstSender::accept_beat(const BeatRequest& beat, const AddressMap& map,
                              TileId home_tile) {
  assert(can_accept_beat());
  const auto push_narrow = [this](const WordRequest& w) {
    PendingItem item;
    item.is_burst = false;
    item.word = w;
    stage(item);
  };

  // A 1-word-stride vlse32 is semantically a vle32; the extension detects
  // it and rides the plain unit-stride burst path (the paper's baseline
  // design keys on the VLE opcode only).
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

  // Burst-eligible: the words are equidistant addresses in element order.
  // Split into runs that stay within one tile (and one max-length burst).
  std::size_t i = 0;
  const std::size_t n = beat.words.size();
  bool split_seen = false;
  while (i < n) {
    const Addr base = beat.words[i].addr;
    const DecodedAddr dec = map.decode(base);
    const TileId dst = dec.tile;
    std::size_t run = 1;
    while (i + run < n && run < cfg_.max_burst_len &&
           dec.bank_in_tile + run * stride < map.banks_per_tile()) {
      assert(beat.words[i + run].addr == base + run * stride * kWordBytes);
      ++run;
    }
    if (i + run < n) split_seen = true;

    if (dst == home_tile || run == 1) {
      // Local runs use the full-width tile crossbar; single words stay narrow.
      for (std::size_t j = 0; j < run; ++j) push_narrow(beat.words[i + j]);
    } else if (try_extend_tail(&beat.words[i], static_cast<unsigned>(run), base, dst,
                               stride, write, map)) {
      // Coalesced into the still-staged previous burst (max_burst_len > K).
    } else if (write) {
      // Write bursts carry their payload and need no reorder table: the
      // serving banks acknowledge each word out of band.
      PendingItem item;
      item.is_burst = true;
      item.write = true;
      item.base = base;
      item.len = static_cast<std::uint8_t>(run);
      item.stride = 1;
      item.dst_tile = dst;
      for (std::size_t j = 0; j < run; ++j) item.wdata[j] = beat.words[i + j].wdata;
      stage(item);
    } else {
      const auto id = alloc_burst();
      if (!id.has_value()) {
        // Table exhausted: degrade gracefully to narrow requests. Performance
        // falls back to baseline behaviour; correctness is unaffected.
        for (std::size_t j = 0; j < run; ++j) push_narrow(beat.words[i + j]);
      } else {
        TableEntry& e = table_[*id];
        e.valid = true;
        e.len = static_cast<std::uint8_t>(run);
        e.resolved = 0;
        for (std::size_t j = 0; j < run; ++j) {
          e.words[j] = BurstWord{beat.words[i + j].port, beat.words[i + j].rob_slot};
        }
        PendingItem item;
        item.is_burst = true;
        item.base = base;
        item.len = static_cast<std::uint8_t>(run);
        item.stride = static_cast<std::uint8_t>(stride);
        item.burst_id = *id;
        item.dst_tile = dst;
        stage(item);
      }
    }
    i += run;
  }
  if (split_seen) coalesce_splits_.inc();
  return true;
}

void BurstSender::route_inbox(const AddressMap& map, const Topology& topo, TileId home) {
  if (lanes_.empty()) {
    num_classes_ = topo.num_classes();
    lanes_.resize(num_classes_ + map.banks_per_tile());
    active_lanes_.init(lanes_.size());
  }
  assert(lanes_.size() == num_classes_ + map.banks_per_tile());
  while (inbox_.head != kNil) {
    const Slot s = lane_pop(inbox_);
    PendingItem& it = slab_[s];
    std::size_t lane = 0;
    if (it.is_burst) {
      lane = topo.class_of(home, it.dst_tile);
    } else {
      const DecodedAddr dec = map.decode(it.word.addr);
      it.dst_tile = dec.tile;
      if (dec.tile == home) {
        lane = num_classes_ + dec.bank_in_tile;
      } else {
        lane = topo.class_of(home, dec.tile);
      }
    }
    lane_push(lanes_[lane], s);
    active_lanes_.set(lane);
  }
}

void BurstSender::dispatch(Cycle now, TileServices& tile) {
  if (staged_ == 0) return;
  const AddressMap& map = tile.map();
  const TileId home = tile.tile_id();
  HierNetwork& net = tile.net();
  if (inbox_.head != kNil) route_inbox(map, net.topology(), home);

  // Items whose port or bank is busy stay for the next cycle; later items
  // to other destinations bypass them (the per-port ROBs make retirement
  // order-independent; kernels never issue overlapping same-address
  // accesses inside this small window). A class port takes at most one
  // request per cycle, so a class lane offers only its head; a bank lane
  // pushes its oldest run until the bank refuses.
  active_lanes_.for_each_live([&](std::size_t l) {
    Lane& lane = lanes_[l];
    if (l >= num_classes_) {
      const unsigned bank = static_cast<unsigned>(l - num_classes_);
      do {
        const PendingItem& it = slab_[lane.head];
        BankReq br;
        br.row = map.row_of(it.word.addr);
        br.write = it.word.write;
        br.wdata = it.word.wdata;
        br.route.kind = RouteKind::kLocalVector;
        br.route.port = it.word.port;
        br.route.rob_slot = it.word.rob_slot;
        br.route.src_tile = home;
        if (!tile.try_local_push(bank, br)) return;
        local_words_.inc();
        release(lane_pop(lane));
      } while (lane.head != kNil);
      active_lanes_.clear(l);
      return;
    }
    if (!net.can_send_req(home, static_cast<std::uint8_t>(l), now)) return;
    const PendingItem& it = slab_[lane.head];
    TcdmReq req;
    req.src_tile = home;
    if (!it.is_burst) {
      const WordRequest& w = it.word;
      req.addr = w.addr;
      req.len = 1;
      req.write = w.write;
      req.wdata = w.wdata;
      req.tag.owner = ReqOwner::kVecNarrow;
      req.tag.port = w.port;
      req.tag.rob_slot = w.rob_slot;
      net.send_req(home, it.dst_tile, req, now);
      narrow_sent_.inc();
    } else {
      req.addr = it.base;
      req.len = it.len;
      req.stride = it.stride;
      req.write = it.write;
      req.tag.owner = ReqOwner::kBurst;
      req.tag.id = it.burst_id;
      if (it.write) req.burst_wdata = it.wdata;
      net.send_req(home, it.dst_tile, req, now);
      bursts_sent_.inc();
      burst_words_.inc(it.len);
      if (it.stride > 1) strided_bursts_sent_.inc();
      if (it.write) store_bursts_sent_.inc();
    }
    release(lane_pop(lane));
    if (lane.head == kNil) active_lanes_.clear(l);
  });
}

BurstSender::BurstWord BurstSender::lookup(std::uint32_t id, unsigned word_offset) const {
  const TableEntry& e = table_.at(id);
  assert(e.valid && word_offset < e.len);
  return e.words[word_offset];
}

void BurstSender::note_resolved(std::uint32_t id, unsigned n) {
  TableEntry& e = table_.at(id);
  assert(e.valid);
  e.resolved = static_cast<std::uint8_t>(e.resolved + n);
  assert(e.resolved <= e.len);
  if (e.resolved == e.len) {
    e.valid = false;
    free_ids_.push_back(id);
    assert(live_bursts_ > 0);
    --live_bursts_;
  }
}

}  // namespace tcdm
