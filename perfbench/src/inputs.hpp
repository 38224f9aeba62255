#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file inputs.hpp
/// The benchmark's own request bytes, built from `--seed` with the
/// AONBench order layout (SOAP envelope, order with id, customer, line
/// items of sku/quantity/price, filler notes). The generator is kept
/// apart from `aon::make_order_message`, so a change to the program's
/// message maker cannot change a workload, and every expected verdict
/// is known from what the benchmark wrote, not from the program.

namespace perfbench {

/// splitmix64: small, seedable, and independent of the program's RNGs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Schema violations the SV inputs carry (one kind per violating input).
enum class Violation : std::uint8_t {
  kNone,
  kZeroQuantity,        ///< an item's quantity is 0 (positiveInteger)
  kBadSku,              ///< a sku outside [A-Z]{2}-\d{3}
  kPriceThreeDecimals,  ///< a price with three fraction digits
  kMissingId,           ///< <order> without its required id attribute
};
std::string_view violation_name(Violation v);

/// Shape of one order body. `items` and `notes` fix the tag skeleton;
/// `novel` >= 0 inserts a <meta> block with an element name unique to
/// that value, giving a skeleton no other input shares.
struct OrderShape {
  std::uint32_t items = 3;
  std::uint32_t notes = 0;
  std::uint32_t first_quantity = 1;
  Violation violation = Violation::kNone;
  std::int64_t novel = -1;
};

std::string order_body(const OrderShape& shape, Rng& rng);

/// Header carrying the benchmark's message id through the gateway to
/// the downstream: "<8-digit input index>.<12-digit sequence>".
inline constexpr std::string_view kIdHeader = "X-Bench-Msg: ";
inline constexpr std::size_t kIdIndexDigits = 8;
inline constexpr std::size_t kIdSeqDigits = 12;

struct Input {
  std::string wire;          ///< the full HTTP POST
  std::size_t body_offset = 0;
  std::size_t seq_offset = 0;  ///< where the sequence digits start
  OrderShape shape;
  bool expect_primary = false;  ///< the verdict the benchmark expects

  std::string_view body() const {
    return std::string_view(wire).substr(body_offset);
  }
};

/// Builds the POST for `body`, tagged with input index `index`.
Input make_input(std::string body, std::size_t index);

/// Overwrites the sequence digits of `input`'s id header in place.
void set_sequence(Input& input, std::uint64_t seq);

/// Parses the id header of a wire (request or forwarded request).
/// Returns false when absent or malformed.
bool parse_message_id(std::string_view wire, std::uint64_t* index,
                      std::uint64_t* seq);

/// CBR inputs: 2-16 KB orders on 32 common skeletons (1-4 items x 8
/// sizes), about one in ten with a skeleton of its own; the first
/// quantity is 1 in about half of them.
std::vector<Input> make_cbr_inputs(std::uint64_t seed, std::size_t count);

/// SV inputs: the same size and skeleton mix without novel skeletons;
/// about one in five carries one of the four violations, in rotation.
std::vector<Input> make_sv_inputs(std::uint64_t seed, std::size_t count);

/// FR inputs: one-item orders without notes, a few hundred bytes each.
std::vector<Input> make_fr_inputs(std::uint64_t seed, std::size_t count);

/// Note counts of the eight size classes (about 2, 3, 4, 6, 8, 10, 13
/// and 16 KB per order).
inline constexpr std::uint32_t kNoteClasses[8] = {14, 25, 36, 58,
                                                  80, 102, 135, 168};

}  // namespace perfbench
