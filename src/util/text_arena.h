// Append-only text storage for capture records.
//
// Span labels, flow names and journal details are written straight into
// one growing byte buffer — strings copied, integers formatted with
// std::to_chars — and a record keeps only the (offset, length) of its
// text. No per-record std::string, no temporaries at the call site.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

namespace vs::util {

/// A double written the way std::to_string(double) writes it: printf "%f",
/// six digits after the point.
struct Fixed {
  double value;
};

/// Growable byte buffer addressed by 32-bit offsets. Move-only; a
/// moved-from arena is empty.
class TextArena {
 public:
  TextArena() = default;
  TextArena(TextArena&& other) noexcept { *this = std::move(other); }
  TextArena& operator=(TextArena&& other) noexcept {
    bytes_ = std::move(other.bytes_);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  /// Offset of the next byte; record text runs from one offset to another.
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

  void put(std::string_view s) {
    if (s.empty()) return;
    if (s.size() > capacity_ - size_) grow(s.size());
    std::memcpy(bytes_.get() + size_, s.data(), s.size());
    size_ += static_cast<std::uint32_t>(s.size());
  }
  void put(char c) {
    if (size_ == capacity_) grow(1);
    bytes_[size_++] = c;
  }
  template <std::integral Int>
    requires(!std::is_same_v<Int, bool> && !std::is_same_v<Int, char>)
  void put(Int v) {
    constexpr std::uint32_t kDigits = 20;  // with sign, any 64-bit integer
    if (kDigits > capacity_ - size_) grow(kDigits);
    char* at = bytes_.get() + size_;
    size_ += static_cast<std::uint32_t>(
        std::to_chars(at, at + kDigits, v).ptr - at);
  }
  void put(Fixed f) {
    // "%f" of the largest double is 316 characters.
    char b[320];
    auto [end, ec] =
        std::to_chars(b, b + sizeof b, f.value, std::chars_format::fixed, 6);
    if (ec == std::errc{}) {
      put(std::string_view(b, static_cast<std::size_t>(end - b)));
    }
  }

  /// Appends every piece in order and returns the (offset, length) of the
  /// text they formed.
  template <typename... Piece>
  std::pair<std::uint32_t, std::uint32_t> append(const Piece&... pieces) {
    const std::uint32_t at = size_;
    (put(pieces), ...);
    return {at, size_ - at};
  }

  [[nodiscard]] std::string_view view(std::uint32_t at,
                                      std::uint32_t len) const noexcept {
    return {bytes_.get() + at, len};
  }

 private:
  /// Reallocates to at least double the capacity, with room for `n` more
  /// bytes. Offsets are 32-bit, so the text of one arena stays below 4 GiB.
  void grow(std::size_t n) {
    constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
    const std::size_t need = std::size_t{size_} + n;
    if (need > kMax) throw std::length_error("text arena exceeds 4 GiB");
    const std::size_t capacity = std::min(
        kMax, std::max({need, 2 * std::size_t{capacity_}, std::size_t{256}}));
    auto bytes = std::make_unique_for_overwrite<char[]>(capacity);
    if (size_ != 0) std::memcpy(bytes.get(), bytes_.get(), size_);
    bytes_ = std::move(bytes);
    capacity_ = static_cast<std::uint32_t>(capacity);
  }

  std::unique_ptr<char[]> bytes_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace vs::util
