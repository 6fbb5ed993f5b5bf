#include "core/psram_array.hpp"

#include <bit>

#include "common/expects.hpp"

namespace ptc::core {

PsramArray::PsramArray(const PsramArrayConfig& config) : config_(config) {
  expects(config.rows >= 1 && config.words_per_row >= 1,
          "array must have at least one word");
  expects(config.bits_per_word >= 1 && config.bits_per_word <= 16,
          "bits per word must be in [1, 16]");
  expects(config.write_rate > 0.0, "write rate must be positive");
  words_.assign(config.rows * config.words_per_row, 0);
  cell_flips_.assign(words_.size() * config.bits_per_word, 0);
  cell_limits_ = FaultModel(config.fault).cell_limits(cell_flips_.size());
}

std::size_t PsramArray::bitcell_count() const {
  return config_.rows * config_.words_per_row * config_.bits_per_word;
}

std::uint32_t PsramArray::max_weight() const {
  return (1u << config_.bits_per_word) - 1;
}

std::size_t PsramArray::write_word(std::size_t row, std::size_t index,
                                   std::uint32_t value) {
  expects(row < config_.rows && index < config_.words_per_row,
          "word coordinates out of range");
  expects(value <= max_weight(), "weight exceeds the word precision");
  const std::size_t word_index = row * config_.words_per_row + index;
  std::uint32_t& word = words_[word_index];
  std::uint32_t applied = value;
  if (!cell_limits_.empty()) {
    for (unsigned b = 0; b < config_.bits_per_word; ++b) {
      const std::size_t cell = word_index * config_.bits_per_word + b;
      if ((((applied ^ word) >> b) & 1u) != 0u &&
          static_cast<double>(cell_flips_[cell]) >= cell_limits_[cell]) {
        // Worn cell: the toggle silently fails and the bit holds its last
        // value.  No switching event, no write energy — write-verify (the
        // write_errors counter) is how a BIST finds out.
        applied = (applied & ~(1u << b)) | (word & (1u << b));
        ++write_errors_;
      }
    }
  }
  const std::uint32_t flips = word ^ applied;
  word = applied;
  const auto flipped = static_cast<std::size_t>(std::popcount(flips));
  ++word_writes_;
  bit_flips_ += flipped;
  for (unsigned b = 0; b < config_.bits_per_word; ++b) {
    if ((flips >> b) & 1u) {
      ++cell_flips_[word_index * config_.bits_per_word + b];
    }
  }
  return flipped;
}

double PsramArray::write_matrix(const std::vector<std::uint32_t>& values) {
  expects(values.size() == words_.size(),
          "matrix size must match the array geometry");
  for (std::size_t row = 0; row < config_.rows; ++row) {
    for (std::size_t index = 0; index < config_.words_per_row; ++index) {
      write_word(row, index, values[row * config_.words_per_row + index]);
    }
  }
  // Rows update in parallel; each row streams words bit-serially at the
  // write rate.
  const double slots = static_cast<double>(config_.words_per_row) *
                       static_cast<double>(config_.bits_per_word);
  return slots / config_.write_rate;
}

std::uint32_t PsramArray::word(std::size_t row, std::size_t index) const {
  expects(row < config_.rows && index < config_.words_per_row,
          "word coordinates out of range");
  return words_[row * config_.words_per_row + index];
}

bool PsramArray::bit(std::size_t row, std::size_t index, unsigned b) const {
  expects(b < config_.bits_per_word, "bit index out of range");
  return (word(row, index) >> b) & 1u;
}

double PsramArray::hold_wall_power() const {
  return static_cast<double>(bitcell_count()) * config_.hold_bias_power /
         config_.wall_plug_efficiency;
}

std::uint64_t PsramArray::max_cell_flips() const {
  std::uint32_t worst = 0;
  for (const std::uint32_t flips : cell_flips_) {
    if (flips > worst) worst = flips;
  }
  return worst;
}

double PsramArray::word_write_time() const {
  return static_cast<double>(config_.bits_per_word) / config_.write_rate;
}

std::size_t PsramArray::failed_cells() const {
  if (cell_limits_.empty()) return 0;
  std::size_t failed = 0;
  for (std::size_t cell = 0; cell < cell_flips_.size(); ++cell) {
    if (static_cast<double>(cell_flips_[cell]) >= cell_limits_[cell]) ++failed;
  }
  return failed;
}

double PsramArray::endurance_remaining() const {
  if (cell_limits_.empty()) return 1.0;
  double worst = 1.0;
  for (std::size_t cell = 0; cell < cell_flips_.size(); ++cell) {
    const double remaining =
        1.0 - static_cast<double>(cell_flips_[cell]) / cell_limits_[cell];
    if (remaining < worst) worst = remaining;
  }
  return worst < 0.0 ? 0.0 : worst;
}

}  // namespace ptc::core
