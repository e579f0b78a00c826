// Golden OSON images: the exact bytes the encoder produced for a fixed set
// of documents before its flat-table rewrite. The image format is a stored
// format (WAL payloads, checkpoints), so every encoder change must keep
// these bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/decimal.h"
#include "common/hash.h"
#include "json/node.h"
#include "json/parser.h"
#include "oson/format.h"
#include "oson/oson.h"
#include "oson/set_encoding.h"

namespace fsdm::oson {
namespace {

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::unique_ptr<json::JsonNode> Parsed(std::string_view text) {
  Result<std::unique_ptr<json::JsonNode>> r = json::Parse(text);
  EXPECT_TRUE(r.ok()) << text;
  return r.MoveValue();
}

Decimal Dec(std::string_view text) {
  return Decimal::FromString(text).MoveValue();
}

// One scalar of every leaf subtype, plus the inline ones.
std::unique_ptr<json::JsonNode> EverySubtype() {
  auto doc = json::JsonNode::MakeObject();
  doc->AddField("n", json::JsonNode::MakeNull());
  doc->AddField("t", json::JsonNode::MakeBool(true));
  doc->AddField("f", json::JsonNode::MakeBool(false));
  doc->AddField("i", json::JsonNode::MakeNumber(int64_t{42}));
  doc->AddField("neg", json::JsonNode::MakeNumber(int64_t{-7}));
  doc->AddField("min", json::JsonNode::MakeNumber(
                           std::numeric_limits<int64_t>::min()));
  doc->AddField("big", json::JsonNode::MakeScalar(Value::Dec(
                           Dec("123456789012345678901234567890"))));
  doc->AddField("frac",
                json::JsonNode::MakeScalar(Value::Dec(Dec("-0.0125"))));
  doc->AddField("dbl", json::JsonNode::MakeNumber(2.5));
  doc->AddField("s", json::JsonNode::MakeString("h\xc3\xa9llo"));
  doc->AddField("e", json::JsonNode::MakeString(""));
  doc->AddField("d", json::JsonNode::MakeScalar(Value::Date(16321)));
  doc->AddField("ts", json::JsonNode::MakeScalar(
                          Value::Timestamp(int64_t{1410134400000000})));
  doc->AddField("b", json::JsonNode::MakeScalar(
                         Value::Binary(std::string("\x00\x01\xff", 3))));
  return doc;
}

// Repeated leaves: equal strings, equal numbers, and a binary whose bytes
// equal a string's (leaves are shared by their encoded bytes).
std::unique_ptr<json::JsonNode> DuplicateLeaves() {
  auto doc = Parsed(
      R"({"a":"x","b":"x","c":[1,1,"1",true,true,null,"x",{"a":"x","d":1}],)"
      R"("e":"1","g":12.5,"h":[12.5,-3,-3]})");
  doc->AddField("bin", json::JsonNode::MakeScalar(Value::Binary("x")));
  return doc;
}

// FNV-1a collisions: costarring/liquid, declinate/macallums and
// altarage/zinke share a FieldNameHash, so the dictionary order between
// each pair comes from the name.
constexpr const char* kCollidingNames =
    R"({"liquid":1,"costarring":2,"zinke":{"altarage":3,)"
    R"("macallums":[4,{"declinate":5,"liquid":6}]},"declinate":"z"})";

constexpr const char* kPurchaseOrder =
    R"({"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[)"
    R"({"name":"phone","price":100,"quantity":2},)"
    R"({"name":"ipad","price":350.86,"quantity":3},)"
    R"({"name":"phone","price":100,"quantity":1}]}})";

Result<std::string> EncodeText(std::string_view text,
                               const EncodeOptions& options = {}) {
  return Encode(*Parsed(text), options);
}

Result<std::string> EncodeShared() {
  SetEncoder enc;
  auto a = Parsed(kCollidingNames);
  auto b = Parsed(kPurchaseOrder);
  enc.CollectNames(*a);
  enc.CollectNames(*b);
  FSDM_RETURN_NOT_OK(enc.FinalizeDictionary());
  return enc.Encode(*a);
}

struct GoldenCase {
  const char* name;
  std::function<Result<std::string>()> encode;
  const char* hex;
};

EncodeOptions NoDedup() {
  EncodeOptions o;
  o.dedup_leaf_values = false;
  return o;
}

EncodeOptions Updatable() {
  EncodeOptions o;
  o.updatable = true;
  return o;
}

EncodeOptions AsDouble() {
  EncodeOptions o;
  o.numbers_as_double = true;
  return o;
}

std::vector<GoldenCase> Cases() {
  return {
      {"purchase_order", [] { return EncodeText(kPurchaseOrder); },
       "4f534f4e010007000000320000005a00000027000000550000002a45440bfa45"
       "0c2de06a38378f33793ad88f724be6bd398dd4c31cfb00000600140017001d00"
       "26002b000570726963650d70757263686173654f72646572026964056974656d"
       "73087175616e74697479046e616d6506706f64617465830000850300850e0083"
       "1400831700000300040509000c000600851a00831f0083240000030004051d00"
       "20001a00850e008314008300000003000405310034002e0040030f0023003700"
       "00030203060000420003000001014a0002c1020a323031342d30392d30380570"
       "686f6e6502c20202c103046970616404c204335702c104"},
      {"every_subtype", [] { return Encode(*EverySubtype()); },
       "4f534f4e01000e00000028000000500000004a0000002400000041af9938704e"
       "4546b9cdca5329d8aa8757458fc97dc54cd1e0220ce073240ce199270ce3e52d"
       "0ce731340cebc4350ceca33d0cf182450cf60000040007000b00100014001800"
       "1a001c001e002000220024002600036e6567027473036269670466726163036d"
       "696e0364626c0165016401660162016e01690174017380818283000083030083"
       "0700831400832500842a00853200853900863a00873e00884600000e00010203"
       "0405060708090a0b0c0d06001e000c000f000900120018001b00020021000000"
       "03000100150002c12b033f5e660c365c4f441d62212f182b5d6610cf0d23394f"
       "5b0d23394f5b0d23394f5b0440644c6600000000000004400668c3a96c6c6f00"
       "c13f00000060ff7f82020500030001ff"},
      {"every_subtype_as_double",
       [] { return Encode(*EverySubtype(), AsDouble()); },
       "4f534f4e01000e0000002800000050000000480000002400000041af9938704e"
       "4546b9cdca5329d8aa8757458fc97dc54cd1e0220ce073240ce199270ce3e52d"
       "0ce731340cebc4350ceca33d0cf182450cf60000040007000b00100014001800"
       "1a001c001e002000220024002600036e6567027473036269670466726163036d"
       "696e0364626c0165016401660162016e01690174017380818284000084080084"
       "1000841800842000842800853000853700863800873c00884400000e00010203"
       "0405060708090a0b0c0d06001e000c000f000900120018001b00020021000000"
       "03000100150000000000000045400000000000001cc0000000000000e0c33e37"
       "6cff90eef8459a999999999989bf00000000000004400668c3a96c6c6f00c13f"
       "00000060ff7f82020500030001ff"},
      {"duplicate_leaves", [] { return Encode(*DuplicateLeaves()); },
       "4f534f4e01000800000012000000660000000f0000004f000000bed8ca5ae022"
       "0ce073240ce106260ce22c290ce4522c0ce6e52d0ce757370ced000004000600"
       "08000a000c000e0010000362696e016501640167016101630162016885000085"
       "0000830200830200850500818180850000850000830200000202041800150040"
       "08060009000c000f001000110012001b00850500830700830700830b00830b00"
       "40033b003e0041008800000007000103040506074c0035003800000023000300"
       "4400017802c102013103c10d33033f6266"},
      {"duplicate_leaves_no_dedup",
       [] { return Encode(*DuplicateLeaves(), NoDedup()); },
       "4f534f4e0102080000001200000066000000270000004f000000bed8ca5ae022"
       "0ce073240ce106260ce22c290ce4522c0ce6e52d0ce757370ced000004000600"
       "08000a000c000e0010000362696e016501640167016101630162016885000085"
       "0200830400830700850a00818180850c00850e00831000000202041800150040"
       "08060009000c000f001000110012001b00851300831500831900831d00832100"
       "40033b003e0041008825000007000103040506074c0035003800000023000300"
       "44000178017802c10202c10201310178017802c102013103c10d3303c10d3303"
       "3f6266033f62660178"},
      {"duplicate_leaves_updatable",
       [] { return Encode(*DuplicateLeaves(), Updatable()); },
       "4f534f4e0102080000001200000066000000270000004f000000bed8ca5ae022"
       "0ce073240ce106260ce22c290ce4522c0ce6e52d0ce757370ced000004000600"
       "08000a000c000e0010000362696e016501640167016101630162016885000085"
       "0200830400830700850a00818180850c00850e00831000000202041800150040"
       "08060009000c000f001000110012001b00851300831500831900831d00832100"
       "40033b003e0041008825000007000103040506074c0035003800000023000300"
       "44000178017802c10202c10201310178017802c102013103c10d3303c10d3303"
       "3f6266033f62660178"},
      {"colliding_names", [] { return EncodeText(kCollidingNames); },
       "4f534f4e0100060000003500000039000000140000002b0000009daa4d5e9daa"
       "4d5ed2470ee2d2470ee2b6d860e4b6d860e400000b0012001c0026002f000a63"
       "6f7374617272696e67066c6971756964096465636c696e617465096d6163616c"
       "6c756d7308616c746172616765057a696e6b6583000083030083060083090083"
       "0c00830f00000201020f000c00400209001200000203041a0006008512000004"
       "00010205030000002800200002c10202c10302c10402c10502c10602c107017a"},
      {"shared_dictionary", [] { return EncodeShared(); },
       "4f534f4e01100d0000000000000039000000140000002b000000830000830300"
       "830600830900830c00830f00000206080f000c004002090012000002090a1a00"
       "060085120000040506080b030000002800200002c10202c10302c10402c10502"
       "c10602c107017a"},
      {"root_empty_object", [] { return EncodeText("{}"); },
       "4f534f4e010000000000000000000200000000000000000000000000"},
      {"root_empty_array", [] { return EncodeText("[]"); },
       "4f534f4e010000000000000000000200000000000000000000004000"},
      {"root_string", [] { return EncodeText("\"s\""); },
       "4f534f4e010000000000000000000300000002000000000000008500000173"},
      {"root_null", [] { return EncodeText("null"); },
       "4f534f4e0100000000000000000001000000000000000000000080"},
      {"root_nested_arrays",
       [] { return EncodeText(R"([1,[2,[3,[]]],{},[{"k":[]}]])"); },
       "4f534f4e010001000000020000002e0000000900000024000000ea380cee0000"
       "016b8300008303008306004000400206000900400203000b0000004000000100"
       "190040011b004004000011001700200002c10202c10302c104"},
  };
}

TEST(OsonGoldenTest, ImagesMatchCapturedBytes) {
  for (const GoldenCase& c : Cases()) {
    Result<std::string> image = c.encode();
    ASSERT_TRUE(image.ok()) << c.name << ": " << image.status().ToString();
    EXPECT_EQ(Hex(image.value()), c.hex) << c.name;
  }
}

// An image past the 2-byte offset range: the encoder falls back to 4-byte
// offsets. Pinned by size and a 64-bit hash of the bytes.
TEST(OsonGoldenTest, WideOffsetImageMatchesCapturedBytes) {
  auto doc = json::JsonNode::MakeObject();
  for (int i = 0; i < 300; ++i) {
    std::string text(250, static_cast<char>('a' + i % 26));
    text += std::to_string(i);
    doc->AddField("k" + std::to_string(i),
                  json::JsonNode::MakeString(std::move(text)));
  }
  Result<std::string> image = Encode(*doc);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_TRUE(static_cast<uint8_t>(image.value()[5]) &
              internal::kFlagWideOffsets);
  EXPECT_EQ(image.value().size(), 83509u);
  EXPECT_EQ(Hash64(image.value()), 12056587100286538673ull);
}

}  // namespace
}  // namespace fsdm::oson
