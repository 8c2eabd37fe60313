#pragma once
/// \file strong_id.hpp
/// Compile-time index-safety layer: strong index types.
///
/// The code shuttles indices between three spaces — 64-bit global DoF ids,
/// 32-bit rank-local ids, and rank ids — plus 64-bit CSR entry offsets.
/// With bare integer aliases the compiler accepts every mix-up and every
/// silent int64->int32 narrowing (hypre's mixed-int HYPRE_BigInt builds are
/// a notorious source of exactly this bug class). StrongId<Tag, Rep> makes
/// each space a distinct type:
///
///   * construction from raw integers is explicit (never implicit);
///   * there is NO conversion between different id types, implicit or
///     explicit — the single audited gateway is exw::checked_narrow<To>();
///   * arithmetic exists only where meaningful: same-type +/- (an index
///     difference is a distance in the same space) and +/- a raw integral
///     count; no cross-type arithmetic, no multiplication;
///   * comparisons are same-type only;
///   * subscripting a container that is indexed by one space with an id
///     from another space is a compile error via IndexedSpan<Id, T>.
///
/// The only sanctioned exits back to raw integers are `value()` (named,
/// greppable) and an explicit conversion to std::size_t so that
/// `static_cast<std::size_t>(id)` subscripts of plain vectors keep working.
///
/// checked_narrow validates range and sentinel (-1 / any negative) and
/// throws exw::Error; when EXW_CHECKS=OFF (CMake switch, default ON
/// except in Release) it compiles to a bare cast with zero overhead.

#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

#ifndef EXW_INDEX_CHECKS_ENABLED
#define EXW_INDEX_CHECKS_ENABLED 0
#endif

namespace exw {

template <class Tag, class Rep>
class StrongId {
  static_assert(std::is_integral_v<Rep> && std::is_signed_v<Rep>,
                "index spaces use signed reps so -1 can flag invalid");

 public:
  using tag_type = Tag;
  using rep_type = Rep;

  /// Zero-initialized (a valid first index, matching the old aliases).
  constexpr StrongId() = default;

  /// Explicit construction from a raw integer. Unchecked by design: this
  /// is for literals and values already validated by the caller. Narrowing
  /// from another *index space* must go through checked_narrow (and cannot
  /// compile through this constructor: other StrongIds are not integral).
  template <std::integral I>
  explicit constexpr StrongId(I v) : v_(static_cast<Rep>(v)) {}

  /// Named exit to the raw representation (greppable escape hatch).
  [[nodiscard]] constexpr Rep value() const { return v_; }

  /// Explicit subscript conversion: static_cast<std::size_t>(id) for
  /// indexing plain std::vector storage. Negative ids wrap to huge values,
  /// exactly like the pre-StrongId code; IndexedSpan is the checked path.
  explicit constexpr operator std::size_t() const {
    return static_cast<std::size_t>(v_);
  }

  // --- comparisons: same-type only --------------------------------------
  friend constexpr bool operator==(StrongId, StrongId) = default;
  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  // --- arithmetic: same-type distances and raw integral counts ----------
  constexpr StrongId& operator++() {
    ++v_;
    return *this;
  }
  constexpr StrongId operator++(int) {
    StrongId t{*this};
    ++v_;
    return t;
  }
  constexpr StrongId& operator--() {
    --v_;
    return *this;
  }
  constexpr StrongId operator--(int) {
    StrongId t{*this};
    --v_;
    return t;
  }

  friend constexpr StrongId operator+(StrongId a, StrongId b) {
    return StrongId{a.v_ + b.v_};
  }
  friend constexpr StrongId operator-(StrongId a, StrongId b) {
    return StrongId{a.v_ - b.v_};
  }
  template <std::integral I>
  friend constexpr StrongId operator+(StrongId a, I b) {
    return StrongId{a.v_ + static_cast<Rep>(b)};
  }
  template <std::integral I>
  friend constexpr StrongId operator+(I a, StrongId b) {
    return StrongId{static_cast<Rep>(a) + b.v_};
  }
  template <std::integral I>
  friend constexpr StrongId operator-(StrongId a, I b) {
    return StrongId{a.v_ - static_cast<Rep>(b)};
  }
  template <std::integral I>
  friend constexpr StrongId operator-(I a, StrongId b) {
    return StrongId{static_cast<Rep>(a) - b.v_};
  }

  constexpr StrongId& operator+=(StrongId o) {
    v_ += o.v_;
    return *this;
  }
  constexpr StrongId& operator-=(StrongId o) {
    v_ -= o.v_;
    return *this;
  }
  template <std::integral I>
  constexpr StrongId& operator+=(I o) {
    v_ += static_cast<Rep>(o);
    return *this;
  }
  template <std::integral I>
  constexpr StrongId& operator-=(I o) {
    v_ -= static_cast<Rep>(o);
    return *this;
  }

 private:
  Rep v_{0};
};

template <class T>
inline constexpr bool is_strong_id_v = false;
template <class Tag, class Rep>
inline constexpr bool is_strong_id_v<StrongId<Tag, Rep>> = true;

template <class Tag, class Rep>
std::string to_string(StrongId<Tag, Rep> id) {
  return std::to_string(id.value());
}

template <class Tag, class Rep>
std::ostream& operator<<(std::ostream& os, StrongId<Tag, Rep> id) {
  return os << id.value();
}

namespace detail {

template <class T>
struct rep_of {
  using type = T;
};
template <class Tag, class Rep>
struct rep_of<StrongId<Tag, Rep>> {
  using type = Rep;
};
template <class T>
using rep_of_t = typename rep_of<T>::type;

template <class T>
constexpr rep_of_t<T> raw_value(T v) {
  if constexpr (is_strong_id_v<T>) {
    return v.value();
  } else {
    static_assert(std::is_integral_v<T>,
                  "checked_narrow takes a StrongId or a raw integer");
    return v;
  }
}

[[noreturn]] void throw_narrow_error(long long value, int to_bits);

}  // namespace detail

/// The single audited gateway between index spaces and widths.
///
/// Converts `from` (a StrongId or raw integer) to `To` (a StrongId or raw
/// integer), throwing exw::Error when the value is negative — which
/// rejects the kInvalid* sentinels (-1): an invalid id must never be
/// narrowed into another space — or does not fit `To`'s representation.
/// With EXW_CHECKS=OFF this is exactly one bare cast.
template <class To, class From>
inline To checked_narrow(From from) {
  const auto raw = detail::raw_value(from);
#if EXW_INDEX_CHECKS_ENABLED
  using ToRep = detail::rep_of_t<To>;
  bool ok = std::in_range<ToRep>(raw);
  if constexpr (std::is_signed_v<decltype(raw)>) {
    ok = ok && raw >= 0;
  }
  if (!ok) {
    detail::throw_narrow_error(static_cast<long long>(raw),
                               static_cast<int>(sizeof(ToRep) * 8));
  }
#endif
  return static_cast<To>(raw);
}

/// A span whose subscript operator accepts exactly one index space.
///
/// Containers indexed by local rows take IndexedSpan<LocalIndex, T>,
/// CSR entry storage takes IndexedSpan<EntryOffset, T>, and so on; passing
/// an id from any other space — or a raw integer — is a compile error.
template <class Id, class T>
class IndexedSpan {
  static_assert(is_strong_id_v<Id>, "IndexedSpan is indexed by a StrongId");

 public:
  using id_type = Id;
  using element_type = T;

  constexpr IndexedSpan() = default;
  constexpr IndexedSpan(std::span<T> s) : s_(s) {}  // NOLINT(*-explicit-*)
  template <class U = std::remove_const_t<T>>
    requires(!std::is_const_v<T>)
  constexpr IndexedSpan(std::vector<U>& v) : s_(v) {}  // NOLINT(*-explicit-*)
  template <class U = std::remove_const_t<T>>
    requires(std::is_const_v<T>)
  constexpr IndexedSpan(const std::vector<U>& v)  // NOLINT(*-explicit-*)
      : s_(v) {}

  constexpr T& operator[](Id i) const {
    return s_[static_cast<std::size_t>(i)];
  }
  /// Raw integers and foreign index spaces do not subscript this span.
  template <class U>
  T& operator[](U) const = delete;

  [[nodiscard]] constexpr std::size_t size() const { return s_.size(); }
  [[nodiscard]] constexpr bool empty() const { return s_.empty(); }
  constexpr T* data() const { return s_.data(); }
  constexpr auto begin() const { return s_.begin(); }
  constexpr auto end() const { return s_.end(); }
  constexpr T& front() const { return s_.front(); }
  constexpr T& back() const { return s_.back(); }

  /// Sanctioned exit to an unchecked span (for memcpy-style plumbing).
  [[nodiscard]] constexpr std::span<T> raw() const { return s_; }
  constexpr operator std::span<T>() const { return s_; }
  constexpr operator std::span<const T>() const
    requires(!std::is_const_v<T>)
  {
    return s_;
  }

 private:
  std::span<T> s_;
};

}  // namespace exw

template <class Tag, class Rep>
struct std::hash<exw::StrongId<Tag, Rep>> {
  std::size_t operator()(exw::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};
