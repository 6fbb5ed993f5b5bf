// Weight streaming: the paper's motivating big-data scenario (Sec. I,
// contribution 2) — datasets exceed the 16x16 array, so weight tiles are
// streamed through the pSRAM at the 20 GHz update rate while inputs flow at
// the 8 GS/s compute rate.  The example processes a large matrix in tiles
// and reports the update-vs-compute time budget, then contrasts the same
// schedule on the PCM-crossbar baseline.
#include <cstdint>
#include <iostream>

#include "baseline/pcm_crossbar.hpp"
#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/tensor_core.hpp"
#include "runtime/accelerator.hpp"

int main() {
  using namespace ptc;
  using namespace ptc::core;

  TensorCore core;
  Rng rng(77);

  // A 128x128 weight matrix: 64 tiles of 16x16.
  constexpr std::size_t big = 128;
  constexpr std::size_t tile = 16;
  constexpr std::size_t tiles_per_side = big / tile;
  constexpr std::size_t batch = 256;  // input vectors per tile residency

  std::cout << "streaming a " << big << "x" << big << " weight matrix ("
            << tiles_per_side * tiles_per_side << " tiles) with a batch of "
            << batch << " inputs per tile\n\n";

  double reload_total = 0.0;
  double compute_total = 0.0;
  std::size_t multiplies = 0;
  for (std::size_t tr = 0; tr < tiles_per_side; ++tr) {
    for (std::size_t tc = 0; tc < tiles_per_side; ++tc) {
      std::vector<std::vector<std::uint32_t>> weights(
          tile, std::vector<std::uint32_t>(tile));
      for (auto& row : weights)
        for (auto& w : row) w = static_cast<std::uint32_t>(rng.below(8));
      reload_total += core.load_weights(weights);

      std::vector<double> input(tile);
      for (std::size_t s = 0; s < batch; ++s) {
        for (auto& v : input) v = rng.uniform();
        core.multiply(input);
        ++multiplies;
      }
      compute_total += static_cast<double>(batch) / 8e9;
    }
  }

  TablePrinter table({"quantity", "value"});
  table.add_row({"tiles streamed",
                 std::to_string(tiles_per_side * tiles_per_side)});
  table.add_row({"matrix-vector products", std::to_string(multiplies)});
  table.add_row({"weight reload time (total)",
                 units::si_format(reload_total, "s")});
  table.add_row({"compute time (total)",
                 units::si_format(compute_total, "s")});
  table.add_row({"update overhead",
                 TablePrinter::num(100.0 * reload_total /
                                       (reload_total + compute_total), 3) +
                     " %"});
  table.add_row({"pSRAM write energy",
                 units::si_format(core.psram().write_energy(), "J")});
  table.print(std::cout);

  // The same streaming schedule on the PCM baseline.
  baseline::PcmCrossbar pcm;
  double pcm_reload = 0.0;
  for (std::size_t t = 0; t < tiles_per_side * tiles_per_side; ++t) {
    Matrix w(tile, tile);
    for (double& v : w.data()) v = rng.uniform();
    pcm_reload += pcm.program(w);
  }
  std::cout << "\nsame schedule on the PCM-crossbar baseline: reload time "
            << units::si_format(pcm_reload, "s") << " ("
            << TablePrinter::num(pcm_reload / reload_total, 3)
            << "x slower), endurance consumed: "
            << pcm.max_cell_updates() << " of "
            << pcm.config().endurance << " writes per cell\n"
            << "\nthe 20 GHz pSRAM update keeps streaming overhead at the "
               "single-digit-percent level (and it amortizes further with "
               "batch size) — the paper's core argument for photonic SRAM "
               "over PCM weights\n";

  // Scale-out: the same streamed matmul on an 8-core accelerator fleet —
  // the tile scheduler spreads the 64 residencies across cores, dividing
  // the modeled streaming time by the fleet size.
  runtime::Accelerator accelerator({.cores = 8});
  const Matrix x = random_activations(batch, big, rng);
  const Matrix w = random_signed(big, big, rng);
  accelerator.matmul(x, w);
  const auto fleet = accelerator.stats();
  std::cout << "\nsame " << big << "x" << big << " workload on an 8-core "
            << "accelerator runtime: " << fleet.tile_loads
            << " tile residencies, modeled makespan "
            << units::si_format(fleet.makespan, "s") << " vs "
            << units::si_format(fleet.busy_time, "s")
            << " single-core ("
            << TablePrinter::num(fleet.busy_time / fleet.makespan, 3)
            << "x), utilization "
            << TablePrinter::num(100.0 * fleet.utilization(), 3) << " %\n";
  return 0;
}
