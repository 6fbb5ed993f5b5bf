#ifndef PTC_CORE_EOADC_HPP
#define PTC_CORE_EOADC_HPP

#include <cstdint>
#include <vector>

#include "circuit/amplifier.hpp"
#include "circuit/rom_decoder.hpp"
#include "circuit/tia.hpp"
#include "core/tech.hpp"
#include "optics/microring.hpp"
#include "optics/photodiode.hpp"
#include "sim/trace.hpp"

/// 1-hot encoding electro-optic ADC (eoADC) — paper Sec. II-C / Figs. 3, 8,
/// 9, 10.
///
/// A p-bit converter uses 2^p microrings.  Ring k's pn junction sees
/// V_pn = V_REF,k - V_IN with V_REF,k = (k + 1/2) * LSB, so ring k sits on
/// resonance at the input wavelength exactly when V_IN is inside bin k.  A
/// balanced photodiode compares each ring's thru power against an 18 uW
/// reference: on resonance the thru power collapses below the reference and
/// the summing node Qp discharges — only *one* thresholding block activates
/// per conversion (1-hot), the property that lets the eoADC avoid the
/// 2^p - 1 simultaneous comparator firings of a thermometer-coded flash.
///
/// An inverter-based TIA plus a cascaded voltage amplifier restore Qp's
/// small swing to a rail-to-rail level within the 125 ps conversion window
/// (8 GS/s); removing them leaves Qp to slew the full logic swing itself,
/// reproducing the paper's amplifier-less operating point (416.7 MS/s at 58%
/// lower electrical power).  A ceiling-priority ROM decoder resolves the
/// deliberate overlap between adjacent activation windows (paper Fig. 9,
/// V_IN = 2 V activates B4 *and* B5, decoded as 100).
///
/// Quantization geometry (derived in DESIGN.md from the paper's transient
/// cases): V_FS = 4.0 V, LSB = 0.5 V; activation window half-width
/// ~0.26 V > LSB/2, so windows overlap only at bin boundaries.
namespace ptc::core {

struct EoAdcConfig {
  unsigned bits = 3;
  double v_full_scale = 4.0;            ///< [V] (see DESIGN.md)
  double input_power_per_ring = 200e-6; ///< [W] (paper: 200 uW)
  double reference_power = 18e-6;       ///< [W] per channel (paper: 18 uW)
  /// Deliberate sense asymmetry: a channel activates when its thru power is
  /// below trip_offset_ratio * reference_power.  >1 guarantees adjacent
  /// double-activation at exact bin boundaries (resolved by the ceiling
  /// decoder) instead of dead zones.
  double trip_offset_ratio = 1.08;
  double qp_capacitance = 50e-15;       ///< balanced-PD summing node [F]
  /// Qp logic-low level that the amplifier-less mode must reach [V].
  double no_amp_low_level = 0.1;
  /// Conversion-window safety margin for the amplifier-less mode.
  double no_amp_margin = 1.18;
  optics::PhotodiodeConfig photodiode{};
  circuit::InverterTiaConfig tia{};        ///< 0.5 mW/channel default
  circuit::VoltageAmpConfig amplifier{};   ///< 0.3 mW/channel default
  circuit::RomDecoderConfig rom{};
  double decoder_static_power = 1.62e-3;   ///< [W]
  double clock_power = 3.0e-3;             ///< S/H + clock distribution [W]
  bool use_amplifier_chain = true;         ///< false = low-power slow mode
  double sample_rate_with_amps = 8e9;      ///< [Hz] (paper: 8 GS/s)
  /// Reference-ladder mismatch (std-dev, volts); 0 = ideal ladder.
  double vref_mismatch_sigma = 0.0;
  std::uint64_t mismatch_seed = 1;
  double wall_plug_efficiency = tech_wall_plug;
  double dt = 0.25e-12;                    ///< transient timestep [s]
};

class EoAdc {
 public:
  explicit EoAdc(const EoAdcConfig& config = {});

  unsigned bits() const { return config_.bits; }
  std::size_t channel_count() const { return std::size_t{1} << config_.bits; }
  double lsb() const;
  unsigned max_code() const { return (1u << config_.bits) - 1; }

  /// Reference voltage of channel `ch` (bin centre), including any sampled
  /// ladder mismatch [V].
  double reference_voltage(std::size_t ch) const;

  /// Thru-port optical power of channel `ch`'s ring for a given input [W]
  /// (the Fig. 8 characteristic).
  double channel_thru_power(std::size_t ch, double v_in) const;

  /// Channel activation pattern for a given input (static model).
  std::vector<bool> channel_activations(double v_in) const;

  struct Conversion {
    unsigned code = 0;
    bool any_active = false;
    bool boundary = false;  ///< two adjacent channels fired (ceiling applied)
    bool fault = false;
    std::vector<bool> active;
  };

  /// Static (settled) conversion: walks all 2^p rings and ROM-decodes.  This
  /// is the physics oracle; code_edges() and linearity() measure it directly.
  Conversion convert(double v_in);

  /// Same value as convert(v).code, read from a frozen code-edge table.
  ///
  /// The first call bisects the walk for the 2^p - 1 code edges — each the
  /// first double at which the static code steps up — over the covered
  /// domain [-V_FS, 8 V_FS] (every readout gain up to 8).  The table arms
  /// only if the edges strictly increase, the walk reads exactly k at edge k
  /// and k - 1 one ulp below it, and 0 / max_code() at the domain ends; an
  /// armed call is then an edge count.  Inputs outside the domain, NaN, and
  /// any converter whose table declined to arm (a mismatched ladder whose
  /// code is non-monotone) take the walk.  The table is built lazily, not
  /// in the constructor, and like the rings' bias scratch it is unguarded
  /// state: one EoAdc is only ever used by one thread at a time.
  unsigned code(double v_in);

  /// The armed table's code edges (edge k - 1 is the first double reading
  /// code k); empty until code() has armed it, and for good if it declined.
  const std::vector<double>& code_table() const { return table_edges_; }

  struct TransientResult {
    Conversion conversion;
    double decision_time = 0.0;  ///< time until the output code is final [s]
    bool completed = false;      ///< decided within the conversion window
  };

  /// Full transient conversion: ring/PD dynamics, Qp integration, TIA +
  /// amplifier chain, ROM decode at the end of the sampling window.
  /// Waveforms (qp_k, b_k) are recorded when `traces` is given (Fig. 9).
  TransientResult convert_transient(double v_in,
                                    sim::TraceSet* traces = nullptr);

  /// Code transition voltages (2^p - 1 edges) on [0, V_FS], located by
  /// bisection on the static conversion (the walk, never the table).
  std::vector<double> code_edges();

  struct Linearity {
    std::vector<double> code_edges;
    std::vector<double> dnl;  ///< per inner code, in LSB
    std::vector<double> inl;  ///< per edge, in LSB (endpoint-fit)
    double max_abs_dnl = 0.0;
    double max_abs_inl = 0.0;
    bool missing_codes = false;
  };

  /// Transfer-function linearity (Fig. 10): DNL/INL from measured edges.
  Linearity linearity();

  // --- power / energy -------------------------------------------------------
  /// Optical power delivered on chip: 2^p * (input + reference) [W].
  double optical_power_delivered() const;
  /// Wall-plug optical power [W] (paper: 7.58 mW).
  double optical_wall_power() const;
  /// Electrical power in the current mode [W] (paper: 11 mW with amps).
  double electrical_power() const;
  /// optical_wall_power + electrical_power [W].
  double total_power() const;
  /// Sample rate in the current mode [Hz].
  double sample_rate() const;
  /// total_power / sample_rate [J] (paper: 2.32 pJ with amps).
  double energy_per_conversion() const;

  const EoAdcConfig& config() const { return config_; }

 private:
  double ring_thru_transmission(std::size_t ch, double v_in) const;
  double activation_threshold_power() const;
  enum class CodeTable : std::uint8_t { kUnbuilt, kArmed, kDeclined };

  /// Bisects and validates the code-edge table; see code().
  void build_code_table();

  EoAdcConfig config_;
  /// Bias is evaluation scratch state (set per query from V_REF - V_IN), so
  /// spectral queries remain logically const.
  mutable std::vector<optics::Microring> rings_;
  std::vector<double> vref_;
  optics::Photodiode photodiode_;
  circuit::CeilingRomDecoder decoder_;
  CodeTable table_state_ = CodeTable::kUnbuilt;
  double table_lo_ = 0.0;  ///< covered domain [table_lo_, table_hi_] [V]
  double table_hi_ = 0.0;
  std::vector<double> table_edges_;  ///< filled only once armed
};

}  // namespace ptc::core

#endif  // PTC_CORE_EOADC_HPP
