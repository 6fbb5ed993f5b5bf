#ifndef PTC_CIRCUIT_ENERGY_HPP
#define PTC_CIRCUIT_ENERGY_HPP

#include <map>
#include <string>
#include <vector>

/// Per-category energy accounting: a name-sorted sum of one-off bookings.
/// The modeled device paths do not book here — the tensor core counts ADC
/// sample windows and the pSRAM counts bit flips, and energies are those
/// exact counts times a per-event energy (TensorCore::energy,
/// PsramArray::write_energy).
namespace ptc::circuit {

class EnergyLedger {
 public:
  /// Books a one-off energy amount [J] under a category.
  void add_energy(const std::string& category, double joules);

  /// Energy booked under a category so far [J] (0 if unknown).
  double energy(const std::string& category) const;

  /// Sum of all booked energies [J].
  double total_energy() const;

  struct Entry {
    std::string category;
    double energy;
  };

  /// All categories sorted by name.
  std::vector<Entry> entries() const;

 private:
  std::map<std::string, double> energies_;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_ENERGY_HPP
