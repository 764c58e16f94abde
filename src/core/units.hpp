// Strong unit and level types — compile-time insurance for the raw doubles
// the CQR guarantee depends on.
//
// A swapped tau/alpha, a Vmin passed in volts where millivolts were
// expected, or an out-of-range quantile level silently corrupts coverage
// without failing any test. These wrappers make such mistakes type errors:
//   * construction from double is `explicit`, so a bare literal cannot bind
//     to a Millivolt/QuantileLevel/... parameter;
//   * there is no conversion between distinct strong types (Volt does not
//     convert to Millivolt, QuantileLevel does not convert to
//     MiscoverageAlpha) — cross-unit calls fail to compile;
//   * conversion *to* double is implicit, so values flow into arithmetic and
//     the raw numeric kernels without friction.
// Constructors are constexpr and validate by throwing: in a constant
// evaluation (e.g. `constexpr QuantileLevel{1.2}`) the throw is a compile
// error; at runtime it is std::invalid_argument, matching the contract
// layer's exception hierarchy (contracts.hpp).
//
// Zero overhead: every type is a single double (or size_t) with constexpr
// inline accessors; no virtual functions, no allocation.
//
// This header is dependency-free below <limits>/<stdexcept> on purpose: it
// is included from stats and models, near the bottom of the library.
#pragma once

#include <compare>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace vmincqr::core {

namespace unit_detail {

/// NaN-safe finiteness test usable in constant expressions.
constexpr bool value_is_finite(double v) {
  // v == v is the canonical constexpr NaN probe.
  return v == v && v <= std::numeric_limits<double>::max() &&
         v >= std::numeric_limits<double>::lowest();
}

/// True iff v is a *normal* double strictly inside (0, 1): rejects 0, 1,
/// NaN, infinities, and denormals (a denormal tau makes ceil((M+1)(1-tau))
/// numerically meaningless long before it is statistically meaningful).
constexpr bool is_open_unit_interval_normal(double v) {
  return v >= std::numeric_limits<double>::min() && v < 1.0;
}

}  // namespace unit_detail

// ---------------------------------------------------------------------------
// Probability levels.

/// A quantile level tau in the open interval (0, 1), e.g. the pinball-loss
/// target of paper Eq. (5). Construction validates; invalid levels throw
/// std::invalid_argument (a compile error in constexpr contexts).
class QuantileLevel {
 public:
  // The constructor is the sanctioned raw-double boundary for this type.
  explicit constexpr QuantileLevel(double tau) : tau_(validated(tau)) {}

  [[nodiscard]] constexpr double value() const noexcept { return tau_; }
  [[nodiscard]] constexpr operator double() const noexcept { return tau_; }

  /// The mirrored level 1 - tau (upper <-> lower pinball target).
  [[nodiscard]] constexpr QuantileLevel complement() const { return QuantileLevel{1.0 - tau_}; }

  friend constexpr auto operator<=>(QuantileLevel, QuantileLevel) = default;

 private:
  static constexpr double validated(double tau) {
    if (!unit_detail::is_open_unit_interval_normal(tau)) {
      throw std::invalid_argument(
          "QuantileLevel: tau must be a normal double in (0, 1)");
    }
    return tau;
  }
  double tau_;
};

/// The target miscoverage rate alpha in (0, 1): the interval aims at
/// 1 - alpha coverage (paper Eq. (6)). Distinct from QuantileLevel so a
/// swapped tau/alpha is a compile error, not a silent coverage bug.
class MiscoverageAlpha {
 public:
  // The constructor is the sanctioned raw-double boundary for this type.
  explicit constexpr MiscoverageAlpha(double alpha) : alpha_(validated(alpha)) {}

  [[nodiscard]] constexpr double value() const noexcept { return alpha_; }
  [[nodiscard]] constexpr operator double() const noexcept { return alpha_; }

  /// Nominal coverage 1 - alpha.
  [[nodiscard]] constexpr double coverage() const noexcept { return 1.0 - alpha_; }
  /// Lower pinball target alpha/2 (paper Sec. II-B.2).
  [[nodiscard]] constexpr QuantileLevel lower_tau() const { return QuantileLevel{alpha_ / 2.0}; }
  /// Upper pinball target 1 - alpha/2.
  [[nodiscard]] constexpr QuantileLevel upper_tau() const {
    return QuantileLevel{1.0 - alpha_ / 2.0};
  }
  /// Per-tail miscoverage alpha/2 (asymmetric CQR calibrates each tail at
  /// this level).
  [[nodiscard]] constexpr MiscoverageAlpha halved() const {
    return MiscoverageAlpha{alpha_ / 2.0};
  }

  friend constexpr auto operator<=>(MiscoverageAlpha, MiscoverageAlpha) = default;

 private:
  static constexpr double validated(double alpha) {
    if (!unit_detail::is_open_unit_interval_normal(alpha)) {
      throw std::invalid_argument(
          "MiscoverageAlpha: alpha must be a normal double in (0, 1)");
    }
    return alpha;
  }
  double alpha_;
};

// ---------------------------------------------------------------------------
// Physical quantities.

class Volt;

/// A voltage in millivolts (the paper reports interval widths in mV).
/// Finite-validated; use to_volts() to cross into the volt domain — there is
/// deliberately no implicit Volt <-> Millivolt conversion.
class Millivolt {
 public:
  explicit constexpr Millivolt(double mv) : mv_(validated(mv)) {}

  [[nodiscard]] constexpr double value() const noexcept { return mv_; }
  [[nodiscard]] constexpr operator double() const noexcept { return mv_; }

  [[nodiscard]] constexpr Volt to_volts() const;

  friend constexpr auto operator<=>(Millivolt, Millivolt) = default;

 private:
  static constexpr double validated(double mv) {
    if (!unit_detail::value_is_finite(mv)) {
      throw std::invalid_argument("Millivolt: value must be finite");
    }
    return mv;
  }
  double mv_;
};

/// A voltage in volts (the unit of every Vmin label and supply rail in this
/// codebase). Finite-validated.
class Volt {
 public:
  explicit constexpr Volt(double v) : v_(validated(v)) {}

  [[nodiscard]] constexpr double value() const noexcept { return v_; }
  [[nodiscard]] constexpr operator double() const noexcept { return v_; }

  [[nodiscard]] constexpr Millivolt to_millivolts() const { return Millivolt{v_ * 1e3}; }

  friend constexpr auto operator<=>(Volt, Volt) = default;

 private:
  static constexpr double validated(double v) {
    if (!unit_detail::value_is_finite(v)) {
      throw std::invalid_argument("Volt: value must be finite");
    }
    return v;
  }
  double v_;
};

constexpr Volt Millivolt::to_volts() const { return Volt{mv_ * 1e-3}; }

/// A test/measurement temperature in degrees Celsius. Finite and no colder
/// than absolute zero.
class Celsius {
 public:
  explicit constexpr Celsius(double deg_c) : c_(validated(deg_c)) {}

  [[nodiscard]] constexpr double value() const noexcept { return c_; }
  [[nodiscard]] constexpr operator double() const noexcept { return c_; }

  friend constexpr auto operator<=>(Celsius, Celsius) = default;

 private:
  static constexpr double validated(double deg_c) {
    if (!unit_detail::value_is_finite(deg_c) || deg_c < -273.15) {
      throw std::invalid_argument(
          "Celsius: temperature must be finite and >= -273.15");
    }
    return deg_c;
  }
  double c_;
};

/// A stress/aging duration in hours. Finite and non-negative.
class Hours {
 public:
  explicit constexpr Hours(double h) : h_(validated(h)) {}

  [[nodiscard]] constexpr double value() const noexcept { return h_; }
  [[nodiscard]] constexpr operator double() const noexcept { return h_; }

  friend constexpr auto operator<=>(Hours, Hours) = default;

 private:
  static constexpr double validated(double h) {
    if (!unit_detail::value_is_finite(h) || h < 0.0) {
      throw std::invalid_argument("Hours: duration must be finite and >= 0");
    }
    return h;
  }
  double h_;
};

// ---------------------------------------------------------------------------
// Index tags.
//
// Opaque indices: unlike the quantities above these do NOT convert
// implicitly (to size_t or each other), so a chip index can never be used
// where a read-point index is expected. Use value() at the container
// boundary.

/// Index of a chip (row) in the generated population.
class ChipId {
 public:
  explicit constexpr ChipId(std::size_t id) : id_(id) {}
  [[nodiscard]] constexpr std::size_t value() const noexcept { return id_; }
  friend constexpr auto operator<=>(ChipId, ChipId) = default;

 private:
  std::size_t id_;
};

/// Index into the stress read-point schedule ({0, 24, 48, ...} hours).
class ReadPointIdx {
 public:
  explicit constexpr ReadPointIdx(std::size_t idx) : idx_(idx) {}
  [[nodiscard]] constexpr std::size_t value() const noexcept { return idx_; }
  friend constexpr auto operator<=>(ReadPointIdx, ReadPointIdx) = default;

 private:
  std::size_t idx_;
};

}  // namespace vmincqr::core
