#include "radio/noise.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace telea {

std::vector<std::int8_t> generate_heavy_noise_trace(
    const SyntheticTraceConfig& config, std::uint64_t seed) {
  Pcg32 rng(seed, /*stream=*/0xC0FFEEULL);
  std::vector<std::int8_t> trace;
  trace.reserve(config.length);
  bool in_burst = false;
  for (std::size_t i = 0; i < config.length; ++i) {
    if (in_burst) {
      if (rng.chance(config.p_leave_burst)) in_burst = false;
    } else {
      if (rng.chance(config.p_enter_burst)) in_burst = true;
    }
    const double mean = in_burst ? config.burst_mean_dbm : config.floor_mean_dbm;
    const double sigma = in_burst ? config.burst_sigma_db : config.floor_sigma_db;
    const double v =
        std::clamp(rng.normal(mean, sigma), config.min_dbm, config.max_dbm);
    trace.push_back(static_cast<std::int8_t>(std::lround(v)));
  }
  return trace;
}

CpmNoiseModel::CpmNoiseModel(const std::vector<std::int8_t>& trace,
                             std::size_t history)
    : history_(std::max<std::size_t>(history, 1)) {
  // Bags and marginal draws index the trace with 32-bit offsets.
  if (trace.size() <= history_ ||
      trace.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "CpmNoiseModel: the trace must be longer than the pattern history "
        "and shorter than 2^32 readings");
  }
  marginal_ = trace;
  double sum = 0;
  for (std::int8_t v : trace) sum += v;
  marginal_mean_ = sum / static_cast<double>(trace.size());

  // First pass: count each pattern's successors, growing the slot array as
  // new patterns appear. Second pass: lay the bags out back to back and
  // fill each in trace order, using `begin` as the write cursor.
  slots_.assign(16, Slot{});
  slot_shift_ = 64 - 4;
  std::size_t patterns = 0;
  for (std::size_t i = history_; i < trace.size(); ++i) {
    const std::uint64_t hash = pattern_hash(&trace[i - history_], history_);
    std::size_t at = find_slot(hash);
    if (slots_[at].count == 0) {
      if ((patterns + 1) * 4 > slots_.size() * 3) {
        grow_slots();
        at = find_slot(hash);
      }
      slots_[at].hash = hash;
      ++patterns;
    }
    ++slots_[at].count;
  }
  std::uint32_t offset = 0;
  for (Slot& slot : slots_) {
    slot.begin = offset;
    offset += slot.count;
  }
  pool_.resize(offset);
  for (std::size_t i = history_; i < trace.size(); ++i) {
    Slot& slot =
        slots_[find_slot(pattern_hash(&trace[i - history_], history_))];
    pool_[slot.begin++] = trace[i];
  }
  for (Slot& slot : slots_) slot.begin -= slot.count;
}

std::uint64_t CpmNoiseModel::pattern_hash(const std::int8_t* readings,
                                          std::size_t n) noexcept {
  // FNV-1a over the quantized readings; collisions merely merge similar
  // conditional distributions, which CPM tolerates by construction.
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint8_t>(readings[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t CpmNoiseModel::find_slot(std::uint64_t hash) const noexcept {
  // Fibonacci hashing: FNV-1a's low bits depend only on the low bits of
  // each step, so the slot index is taken from the mixed high bits.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hash * 0x9E3779B97F4A7C15ULL) >> slot_shift_;;
       i = (i + 1) & mask) {
    if (slots_[i].count == 0 || slots_[i].hash == hash) return i;
  }
}

void CpmNoiseModel::grow_slots() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --slot_shift_;
  for (const Slot& slot : old) {
    if (slot.count != 0) slots_[find_slot(slot.hash)] = slot;
  }
}

std::int8_t CpmNoiseModel::sample_next(const std::vector<std::int8_t>& recent,
                                       Pcg32& rng) const {
  const Slot& slot =
      slots_[find_slot(pattern_hash(recent.data(), recent.size()))];
  if (slot.count == 0) return sample_marginal(rng);
  return pool_[slot.begin + rng.uniform(slot.count)];
}

std::int8_t CpmNoiseModel::sample_marginal(Pcg32& rng) const {
  return marginal_[rng.uniform(static_cast<std::uint32_t>(marginal_.size()))];
}

CpmNoiseModel::Generator::Generator(const CpmNoiseModel& model,
                                    std::uint64_t seed, std::uint64_t stream)
    : model_(&model), rng_(seed, stream), recent_(model.history()) {}

void CpmNoiseModel::Generator::advance_one() {
  const std::int8_t next = model_->sample_next(recent_, rng_);
  std::rotate(recent_.begin(), recent_.begin() + 1, recent_.end());
  recent_.back() = next;
  current_ = next;
}

std::int8_t CpmNoiseModel::Generator::noise_dbm(SimTime t) {
  const SimTime target_step = t / kStep;
  if (!primed_) {
    // Seed the history from the marginal so the first readings are plausible.
    for (auto& r : recent_) r = model_->sample_marginal(rng_);
    current_ = recent_.back();
    current_step_ = target_step;
    primed_ = true;
    return current_;
  }
  if (target_step <= current_step_) return current_;
  SimTime gap = target_step - current_step_;
  if (gap > kMaxCatchUpSteps) {
    // Far-apart queries are decorrelated anyway: restart from the marginal
    // rather than walking the chain for an unbounded number of steps.
    for (auto& r : recent_) r = model_->sample_marginal(rng_);
    gap = 1;
  }
  for (SimTime i = 0; i < gap; ++i) advance_one();
  current_step_ = target_step;
  return current_;
}

}  // namespace telea
