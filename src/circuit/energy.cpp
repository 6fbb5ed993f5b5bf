#include "circuit/energy.hpp"

#include "common/expects.hpp"

namespace ptc::circuit {

void EnergyLedger::add_energy(const std::string& category, double joules) {
  expects(joules >= 0.0, "energy must be >= 0");
  energies_[category] += joules;
}

double EnergyLedger::energy(const std::string& category) const {
  const auto it = energies_.find(category);
  return it == energies_.end() ? 0.0 : it->second;
}

double EnergyLedger::total_energy() const {
  double sum = 0.0;
  for (const auto& [category, joules] : energies_) sum += joules;
  return sum;
}

std::vector<EnergyLedger::Entry> EnergyLedger::entries() const {
  std::vector<Entry> out;
  for (const auto& [category, joules] : energies_) {
    out.push_back({category, joules});
  }
  return out;
}

}  // namespace ptc::circuit
