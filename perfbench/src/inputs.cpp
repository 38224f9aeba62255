#include "inputs.hpp"

#include <cstdio>

namespace perfbench {

namespace {

const char* const kFillerWords[] = {
    "logistics", "fulfillment", "priority", "tracking",  "warehouse",
    "carrier",   "manifest",    "routing",  "packaging", "customs",
};

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_digits(std::string& out, std::uint64_t v, std::size_t width) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%0*llu", static_cast<int>(width),
                static_cast<unsigned long long>(v));
  out += buf;
}

OrderShape common_shape(Rng& rng) {
  OrderShape shape;
  shape.items = 1 + static_cast<std::uint32_t>(rng.below(4));
  shape.notes = kNoteClasses[rng.below(8)];
  return shape;
}

}  // namespace

std::string_view violation_name(Violation v) {
  switch (v) {
    case Violation::kNone: return "none";
    case Violation::kZeroQuantity: return "zero-quantity";
    case Violation::kBadSku: return "bad-sku";
    case Violation::kPriceThreeDecimals: return "price-three-decimals";
    case Violation::kMissingId: return "missing-id";
  }
  return "?";
}

std::string order_body(const OrderShape& shape, Rng& rng) {
  std::string b;
  b.reserve(600 + 100 * shape.notes + 100 * shape.items);
  b += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  b += "<soapenv:Envelope xmlns:soapenv=\""
       "http://schemas.xmlsoap.org/soap/envelope/\">\n"
       "<soapenv:Header/>\n<soapenv:Body>\n<order";
  if (shape.violation != Violation::kMissingId) {
    b += " id=\"";
    append_u64(b, 1 + rng.below(100000));
    b += '"';
  }
  b += ">\n  <customer>Customer-";
  append_u64(b, 1 + rng.below(10000));
  b += "</customer>\n";
  if (shape.novel >= 0) {
    b += "  <meta><k";
    append_u64(b, static_cast<std::uint64_t>(shape.novel));
    b += ">ref</k";
    append_u64(b, static_cast<std::uint64_t>(shape.novel));
    b += "></meta>\n";
  }
  // Each violation lands in a random item, so it is not always first.
  const std::uint32_t bad_item =
      static_cast<std::uint32_t>(rng.below(shape.items));
  for (std::uint32_t i = 0; i < shape.items; ++i) {
    const bool bad = i == bad_item;
    std::uint64_t quantity =
        i == 0 ? shape.first_quantity : 1 + rng.below(9);
    if (bad && shape.violation == Violation::kZeroQuantity) quantity = 0;
    b += "  <item>\n    <sku>";
    if (bad && shape.violation == Violation::kBadSku) {
      b += static_cast<char>('A' + rng.below(26));
      b += static_cast<char>('0' + rng.below(10));
      b += '-';
      append_digits(b, rng.below(10000), 4);
    } else {
      b += static_cast<char>('A' + rng.below(26));
      b += static_cast<char>('A' + rng.below(26));
      b += '-';
      append_digits(b, rng.below(1000), 3);
    }
    b += "</sku>\n    <quantity>";
    append_u64(b, quantity);
    b += "</quantity>\n    <price>";
    append_u64(b, 1 + rng.below(500));
    b += '.';
    if (bad && shape.violation == Violation::kPriceThreeDecimals) {
      // A nonzero last digit: "1.230" is 1.23, two fraction digits.
      append_digits(b, rng.below(100), 2);
      b += static_cast<char>('1' + rng.below(9));
    } else {
      append_digits(b, rng.below(100), 2);
    }
    b += "</price>\n  </item>\n";
  }
  for (std::uint32_t n = 0; n < shape.notes; ++n) {
    b += "  <note seq=\"";
    append_u64(b, n);
    b += "\">";
    const std::uint64_t words = 6 + rng.below(5);
    for (std::uint64_t w = 0; w < words; ++w) {
      if (w > 0) b += ' ';
      b += kFillerWords[rng.below(10)];
    }
    b += "</note>\n";
  }
  b += "</order>\n</soapenv:Body>\n</soapenv:Envelope>\n";
  return b;
}

Input make_input(std::string body, std::size_t index) {
  Input in;
  std::string& w = in.wire;
  w.reserve(body.size() + 256);
  w += "POST /aon/service HTTP/1.1\r\n"
       "Host: aon-gateway.example\r\n"
       "Content-Type: text/xml; charset=utf-8\r\n"
       "SOAPAction: \"urn:order/submit\"\r\n";
  w += kIdHeader;
  append_digits(w, index, kIdIndexDigits);
  w += '.';
  in.seq_offset = w.size();
  append_digits(w, 0, kIdSeqDigits);
  w += "\r\nContent-Length: ";
  append_u64(w, body.size());
  w += "\r\n\r\n";
  in.body_offset = w.size();
  w += body;
  return in;
}

void set_sequence(Input& input, std::uint64_t seq) {
  char* p = input.wire.data() + input.seq_offset + kIdSeqDigits;
  for (std::size_t i = 0; i < kIdSeqDigits; ++i) {
    *--p = static_cast<char>('0' + seq % 10);
    seq /= 10;
  }
}

bool parse_message_id(std::string_view wire, std::uint64_t* index,
                      std::uint64_t* seq) {
  const std::size_t head_end = wire.find("\r\n\r\n");
  const std::size_t at = wire.substr(0, head_end).find(kIdHeader);
  if (at == std::string_view::npos) return false;
  std::string_view v = wire.substr(at + kIdHeader.size());
  if (v.size() < kIdIndexDigits + 1 + kIdSeqDigits ||
      v[kIdIndexDigits] != '.') {
    return false;
  }
  std::uint64_t idx = 0, s = 0;
  for (std::size_t i = 0; i < kIdIndexDigits; ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
    idx = idx * 10 + static_cast<std::uint64_t>(v[i] - '0');
  }
  for (std::size_t i = kIdIndexDigits + 1; i < kIdIndexDigits + 1 + kIdSeqDigits;
       ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
    s = s * 10 + static_cast<std::uint64_t>(v[i] - '0');
  }
  *index = idx;
  *seq = s;
  return true;
}

std::vector<Input> make_cbr_inputs(std::uint64_t seed, std::size_t count) {
  Rng rng(seed * 0x100000001B3ull + 11);
  std::vector<Input> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    OrderShape shape = common_shape(rng);
    if (rng.below(10) == 0) shape.novel = static_cast<std::int64_t>(i);
    shape.first_quantity =
        rng.below(2) == 0 ? 1 : 2 + static_cast<std::uint32_t>(rng.below(8));
    Input in = make_input(order_body(shape, rng), i);
    in.shape = shape;
    in.expect_primary = shape.first_quantity == 1;
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<Input> make_sv_inputs(std::uint64_t seed, std::size_t count) {
  Rng rng(seed * 0x100000001B3ull + 23);
  static constexpr Violation kKinds[] = {
      Violation::kZeroQuantity, Violation::kBadSku,
      Violation::kPriceThreeDecimals, Violation::kMissingId};
  std::vector<Input> out;
  out.reserve(count);
  std::size_t next_kind = 0;
  for (std::size_t i = 0; i < count; ++i) {
    OrderShape shape = common_shape(rng);
    shape.first_quantity = 1 + static_cast<std::uint32_t>(rng.below(9));
    if (rng.below(5) == 0) shape.violation = kKinds[next_kind++ % 4];
    Input in = make_input(order_body(shape, rng), i);
    in.shape = shape;
    in.expect_primary = shape.violation == Violation::kNone;
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<Input> make_fr_inputs(std::uint64_t seed, std::size_t count) {
  Rng rng(seed * 0x100000001B3ull + 37);
  std::vector<Input> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    OrderShape shape;
    shape.items = 1;
    shape.notes = 0;
    shape.first_quantity = 1 + static_cast<std::uint32_t>(rng.below(9));
    Input in = make_input(order_body(shape, rng), i);
    in.shape = shape;
    in.expect_primary = true;  // FR forwards everything to the primary
    out.push_back(std::move(in));
  }
  return out;
}

}  // namespace perfbench
