// Seeded encoder oracle: every image of a generated corpus (NOBENCH,
// purchase orders, wide and deep synthetic documents, and documents built
// to straddle the 2-byte offset boundary) is checked against the format's
// invariants by reading its raw bytes, and decoded back. FSDM_CHAOS_SEED
// pins one seed (one per CI job); the default run sweeps seeds 1-3.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/varint.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "oson/format.h"
#include "oson/oson.h"
#include "oson/set_encoding.h"
#include "workloads/generators.h"

namespace fsdm::oson {
namespace {

using json::JsonNode;

struct Doc {
  std::string label;
  std::unique_ptr<JsonNode> tree;
};

std::unique_ptr<JsonNode> MustParse(const std::string& text) {
  Result<std::unique_ptr<JsonNode>> r = json::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.MoveValue() : JsonNode::MakeNull();
}

std::string Quoted(std::string_view s) { return "\"" + std::string(s) + "\""; }

// Many fields, a third each of integers, strings and decimals; the string
// lengths spread the value segment across the 2-byte offset boundary.
std::string WideDoc(Rng* rng) {
  const int fields = 20 + static_cast<int>(rng->Uniform(500));
  const uint64_t max_string = 1 + rng->Uniform(600);
  std::string s = "{";
  for (int k = 0; k < fields; ++k) {
    if (k > 0) s += ",";
    s += Quoted("w" + std::to_string(rng->Uniform(700)) + "_" +
                std::to_string(k)) +
         ":";
    switch (k % 3) {
      case 0:
        s += std::to_string(rng->Range(-1000000, 1000000));
        break;
      case 1:
        s += Quoted(std::string(rng->Uniform(max_string), 'a' + k % 26));
        break;
      default:
        s += std::to_string(rng->Uniform(1000)) + "." +
             std::to_string(1 + rng->Uniform(99));
    }
  }
  return s + "}";
}

// Alternating objects and arrays, with repeated names and leaves.
std::string DeepDoc(Rng* rng) {
  const int depth = 2 + static_cast<int>(rng->Uniform(80));
  std::string s;
  for (int k = 0; k < depth; ++k) {
    s += k % 2 == 0 ? "{" + Quoted("d" + std::to_string(k % 5)) + ":" : "[1,";
  }
  s += Quoted("leaf" + std::to_string(rng->Uniform(4)));
  for (int k = depth - 1; k >= 0; --k) s += k % 2 == 0 ? "}" : "]";
  return s;
}

// Documents whose value segment, tree segment or name blob sits just
// below, at, or just above 0xFFFF bytes.
std::vector<Doc> BoundaryDocs() {
  std::vector<Doc> docs;
  // One string leaf: the value segment is a 3-byte varint plus n bytes.
  for (size_t n = 0xFFFF - 6; n <= 0xFFFF + 2; ++n) {
    auto doc = JsonNode::MakeObject();
    doc->AddField("pad", JsonNode::MakeString(std::string(n, 'p')));
    docs.push_back({"value-boundary " + std::to_string(n), std::move(doc)});
  }
  // An array of nulls: 1 byte per element plus a 2-byte offset each.
  for (size_t n = 21843; n <= 21847; ++n) {
    auto doc = JsonNode::MakeArray();
    for (size_t i = 0; i < n; ++i) doc->Append(JsonNode::MakeNull());
    docs.push_back({"tree-boundary " + std::to_string(n), std::move(doc)});
  }
  // 300 distinct names (2-byte ids), and a name blob past 0xFFFF.
  for (size_t len : {size_t{4}, size_t{230}}) {
    auto doc = JsonNode::MakeObject();
    for (int i = 0; i < 300; ++i) {
      std::string name = std::to_string(i);
      name.resize(len, 'n');
      doc->AddField(name, JsonNode::MakeNumber(int64_t{i % 7}));
    }
    docs.push_back({"names " + std::to_string(len), std::move(doc)});
  }
  return docs;
}

std::vector<Doc> Corpus(uint64_t seed) {
  Rng rng(seed);
  std::vector<Doc> docs;
  for (int i = 0; i < 150; ++i) {
    docs.push_back({"nobench", MustParse(workloads::Nobench(&rng, i))});
    docs.push_back({"purchase order", MustParse(workloads::PurchaseOrder(&rng, i))});
  }
  for (int i = 0; i < 40; ++i) {
    docs.push_back({"wide", MustParse(WideDoc(&rng))});
    docs.push_back({"deep", MustParse(DeepDoc(&rng))});
  }
  return docs;
}

// --- Raw image reader -------------------------------------------------------

struct Leaf {
  uint32_t offset;
  std::string bytes;
};

// Reads an image's segments straight from its bytes and checks the
// layout invariants the navigation code relies on.
class RawImage {
 public:
  RawImage(const std::string& image, const SharedDictionary* dict)
      : image_(image), dict_(dict) {}

  void Check() {
    ASSERT_GE(image_.size(), internal::kHeaderSize);
    ASSERT_EQ(image_.compare(0, 4, internal::kMagic, 4), 0);
    flags_ = U8(5);
    off_width_ = (flags_ & internal::kFlagWideOffsets) ? 4 : 2;
    const int id_code = (flags_ >> internal::kFlagIdWidthShift) & 3;
    id_width_ = id_code == 0 ? 1 : (id_code == 1 ? 2 : 4);
    field_count_ = DecodeFixed32(At(6));
    names_size_ = DecodeFixed32(At(10));
    tree_size_ = DecodeFixed32(At(14));
    values_size_ = DecodeFixed32(At(18));
    const uint32_t root = DecodeFixed32(At(22));
    const bool external = (flags_ & internal::kFlagExternalDict) != 0;
    ASSERT_EQ(external, dict_ != nullptr);
    const size_t dict_fields = external ? dict_->field_count() : field_count_;
    EXPECT_EQ(field_count_, dict_fields);
    EXPECT_EQ(id_width_, dict_fields <= 0xFF ? 1 : (dict_fields <= 0xFFFF ? 2 : 4));
    size_t pos = internal::kHeaderSize;
    if (!external) {
      ASSERT_NO_FATAL_FAILURE(CheckDictionary(pos));
      pos += field_count_ * (4 + off_width_) + names_size_;
    } else {
      EXPECT_EQ(names_size_, 0u);
    }
    tree_start_ = pos;
    values_start_ = tree_start_ + tree_size_;
    ASSERT_EQ(values_start_ + values_size_, image_.size());
    ASSERT_NO_FATAL_FAILURE(Walk(root, 0));
    // Every tree byte belongs to exactly one reachable node.
    EXPECT_EQ(node_bytes_, tree_size_);
    // 4-byte offsets exactly when the 2-byte encoding would not fit.
    const size_t narrow_tree =
        off_width_ == 4 ? tree_size_ - 2 * offsets_in_tree_ : tree_size_;
    const bool needs_wide = narrow_tree > 0xFFFF || values_size_ > 0xFFFF ||
                            names_size_ > 0xFFFF;
    EXPECT_EQ(off_width_ == 4, needs_wide)
        << "tree " << narrow_tree << " values " << values_size_ << " names "
        << names_size_;
  }

  bool shared_leaves() const {
    return (flags_ & internal::kFlagUnsharedLeaves) == 0;
  }
  const std::vector<Leaf>& leaves() const { return leaves_; }
  size_t values_size() const { return values_size_; }
  uint8_t off_width() const { return off_width_; }

 private:
  const uint8_t* At(size_t pos) const {
    return reinterpret_cast<const uint8_t*>(image_.data()) + pos;
  }
  uint8_t U8(size_t pos) const { return *At(pos); }
  uint32_t Offset(size_t pos) const {
    return off_width_ == 2 ? DecodeFixed16(At(pos)) : DecodeFixed32(At(pos));
  }
  uint32_t FieldId(size_t pos) const {
    return id_width_ == 1 ? U8(pos)
                          : (id_width_ == 2 ? DecodeFixed16(At(pos))
                                            : DecodeFixed32(At(pos)));
  }

  // Hashes sorted by (hash, name), each the FieldNameHash of its name.
  void CheckDictionary(size_t pos) {
    const size_t offsets = pos + field_count_ * 4;
    const size_t blob = offsets + field_count_ * off_width_;
    ASSERT_LE(blob + names_size_, image_.size());
    uint32_t prev_hash = 0;
    std::string prev_name;
    for (uint32_t id = 0; id < field_count_; ++id) {
      const uint32_t hash = DecodeFixed32(At(pos + id * 4));
      const uint32_t name_at = Offset(offsets + id * off_width_);
      uint32_t len = 0;
      const uint8_t* p = GetVarint32(At(blob + name_at),
                                     At(blob + names_size_), &len);
      ASSERT_NE(p, nullptr);
      const std::string name(reinterpret_cast<const char*>(p), len);
      EXPECT_EQ(hash, FieldNameHash(name)) << name;
      if (id > 0) {
        EXPECT_TRUE(prev_hash < hash || (prev_hash == hash && prev_name < name))
            << "dictionary out of (hash, name) order at id " << id;
      }
      prev_hash = hash;
      prev_name = name;
    }
  }

  void Walk(uint32_t node, int depth) {
    ASSERT_LT(depth, 2000);
    ASSERT_LT(node, tree_size_);
    const size_t at = tree_start_ + node;
    const uint8_t header = U8(at);
    const uint8_t kind = header & internal::kKindMask;
    if (kind == internal::kKindScalar) {
      const uint8_t sub = header & internal::kSubtypeMask;
      if (internal::SubtypeIsInline(sub)) {
        node_bytes_ += 1;
        return;
      }
      node_bytes_ += 1 + off_width_;
      ++offsets_in_tree_;
      const uint32_t off = Offset(at + 1);
      ASSERT_LT(off, values_size_);
      const uint8_t* v = At(values_start_ + off);
      const uint8_t* limit = At(values_start_ + values_size_);
      size_t size = 0;
      if (sub == internal::kSubDouble || sub == internal::kSubTimestamp) {
        size = 8;
      } else if (sub == internal::kSubDate) {
        size = 4;
      } else {
        uint32_t len = 0;
        const uint8_t* q = GetVarint32(v, limit, &len);
        ASSERT_NE(q, nullptr);
        size = static_cast<size_t>(q - v) + len;
      }
      ASSERT_LE(off + size, values_size_);
      leaves_.push_back(
          {off, std::string(reinterpret_cast<const char*>(v), size)});
      return;
    }
    uint32_t n = 0;
    const uint8_t* p = GetVarint32(At(at + 1), At(values_start_), &n);
    ASSERT_NE(p, nullptr);
    const size_t body = static_cast<size_t>(p - At(at));
    const size_t ids = at + body;
    const size_t offs = kind == internal::kKindObject ? ids + n * id_width_
                                                      : ids;
    node_bytes_ += offs - at + n * off_width_;
    offsets_in_tree_ += n;
    for (uint32_t i = 0; i < n; ++i) {
      if (kind == internal::kKindObject) {
        const uint32_t id = FieldId(ids + i * id_width_);
        EXPECT_LT(id, dict_ != nullptr ? dict_->field_count() : field_count_);
        if (i > 0) {
          EXPECT_LT(FieldId(ids + (i - 1) * id_width_), id)
              << "object children not sorted by field id";
        }
      }
      ASSERT_NO_FATAL_FAILURE(Walk(Offset(offs + i * off_width_), depth + 1));
    }
  }

  const std::string& image_;
  const SharedDictionary* dict_;
  uint8_t flags_ = 0;
  uint8_t off_width_ = 2;
  uint8_t id_width_ = 1;
  uint32_t field_count_ = 0;
  size_t names_size_ = 0;
  size_t tree_size_ = 0;
  size_t values_size_ = 0;
  size_t tree_start_ = 0;
  size_t values_start_ = 0;
  size_t node_bytes_ = 0;
  size_t offsets_in_tree_ = 0;
  std::vector<Leaf> leaves_;
};

// Shared leaves: one slot per distinct encoding and nothing else in the
// segment. Unshared: one slot per scalar node.
void CheckLeafSharing(const RawImage& raw, bool want_shared) {
  EXPECT_EQ(raw.shared_leaves(), want_shared);
  std::map<std::string, std::set<uint32_t>> slots;
  std::set<uint32_t> offsets;
  size_t total = 0;
  for (const Leaf& leaf : raw.leaves()) {
    slots[leaf.bytes].insert(leaf.offset);
    if (offsets.insert(leaf.offset).second) total += leaf.bytes.size();
  }
  if (want_shared) {
    for (const auto& [bytes, at] : slots) {
      EXPECT_EQ(at.size(), 1u) << "a leaf encoding stored twice";
    }
  } else {
    EXPECT_EQ(offsets.size(), raw.leaves().size()) << "a leaf slot is shared";
  }
  EXPECT_EQ(total, raw.values_size());
}

// numbers_as_double: every number decodes as the double of the original.
void ExpectSameAsDoubles(const JsonNode& want, const JsonNode& got) {
  ASSERT_EQ(want.kind(), got.kind());
  switch (want.kind()) {
    case json::NodeKind::kObject:
      ASSERT_EQ(want.field_count(), got.field_count());
      for (size_t i = 0; i < want.field_count(); ++i) {
        const JsonNode* theirs = got.GetField(want.field_name(i));
        ASSERT_NE(theirs, nullptr) << want.field_name(i);
        ExpectSameAsDoubles(*want.field_value(i), *theirs);
      }
      return;
    case json::NodeKind::kArray:
      ASSERT_EQ(want.array_size(), got.array_size());
      for (size_t i = 0; i < want.array_size(); ++i) {
        ExpectSameAsDoubles(*want.element(i), *got.element(i));
      }
      return;
    case json::NodeKind::kScalar: {
      const Value& w = want.scalar();
      const Value& g = got.scalar();
      if (!w.IsNumeric()) {
        EXPECT_TRUE(want.Equals(got)) << w.ToDisplayString();
        return;
      }
      ASSERT_EQ(g.type(), ScalarType::kDouble) << w.ToDisplayString();
      const double d = w.type() == ScalarType::kInt64
                           ? static_cast<double>(w.AsInt64())
                           : (w.type() == ScalarType::kDecimal
                                  ? w.AsDecimal().ToDouble()
                                  : w.AsDouble());
      EXPECT_EQ(g.AsDouble(), d) << w.ToDisplayString();
      return;
    }
  }
}

// Navigates a Dom (a set-encoded image) against the tree it encodes.
void ExpectDomMatches(const json::Dom& dom, json::Dom::NodeRef ref,
                      const JsonNode& want) {
  ASSERT_NE(ref, json::Dom::kInvalidNode);
  ASSERT_EQ(dom.GetNodeType(ref), want.kind());
  switch (want.kind()) {
    case json::NodeKind::kObject:
      ASSERT_EQ(dom.GetFieldCount(ref), want.field_count());
      for (size_t i = 0; i < want.field_count(); ++i) {
        ExpectDomMatches(dom, dom.GetFieldValue(ref, want.field_name(i)),
                         *want.field_value(i));
      }
      return;
    case json::NodeKind::kArray:
      ASSERT_EQ(dom.GetArrayLength(ref), want.array_size());
      for (size_t i = 0; i < want.array_size(); ++i) {
        ExpectDomMatches(dom, dom.GetArrayElement(ref, i), *want.element(i));
      }
      return;
    case json::NodeKind::kScalar: {
      Value v;
      ASSERT_TRUE(dom.GetScalarValue(ref, &v).ok());
      EXPECT_TRUE(JsonNode::MakeScalar(v)->Equals(want)) << v.ToDisplayString();
      return;
    }
  }
}

// Replay stores the text a decoded image serializes to and hands the
// decoded tree to the IS JSON check as that text's parse, so the two must
// agree exactly: field order, scalar types and displays.
void ExpectStrictlySame(const JsonNode& a, const JsonNode& b) {
  ASSERT_EQ(a.kind(), b.kind());
  switch (a.kind()) {
    case json::NodeKind::kObject:
      ASSERT_EQ(a.field_count(), b.field_count());
      for (size_t i = 0; i < a.field_count(); ++i) {
        ASSERT_EQ(a.field_name(i), b.field_name(i));
        ExpectStrictlySame(*a.field_value(i), *b.field_value(i));
      }
      return;
    case json::NodeKind::kArray:
      ASSERT_EQ(a.array_size(), b.array_size());
      for (size_t i = 0; i < a.array_size(); ++i) {
        ExpectStrictlySame(*a.element(i), *b.element(i));
      }
      return;
    case json::NodeKind::kScalar:
      EXPECT_EQ(a.scalar().type(), b.scalar().type())
          << a.scalar().ToDisplayString();
      EXPECT_EQ(a.scalar().ToDisplayString(), b.scalar().ToDisplayString());
      return;
  }
}

void SweepDocument(const Doc& doc) {
  SCOPED_TRACE(doc.label);
  EncodeOptions no_dedup;
  no_dedup.dedup_leaf_values = false;
  EncodeOptions updatable;
  updatable.updatable = true;
  EncodeOptions as_double;
  as_double.numbers_as_double = true;
  const struct {
    const char* name;
    EncodeOptions options;
    bool shared;
  } modes[] = {{"dedup", EncodeOptions{}, true},
               {"no dedup", no_dedup, false},
               {"updatable", updatable, false},
               {"numbers as double", as_double, true}};
  for (const auto& mode : modes) {
    SCOPED_TRACE(mode.name);
    Result<std::string> image = Encode(*doc.tree, mode.options);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    RawImage raw(image.value(), nullptr);
    ASSERT_NO_FATAL_FAILURE(raw.Check());
    CheckLeafSharing(raw, mode.shared);
    Result<std::unique_ptr<JsonNode>> back = Decode(image.value());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    if (mode.options.numbers_as_double) {
      ExpectSameAsDoubles(*doc.tree, *back.value());
      continue;
    }
    EXPECT_TRUE(doc.tree->Equals(*back.value()));
    if (mode.shared) {
      std::unique_ptr<JsonNode> reparsed =
          MustParse(json::Serialize(*back.value()));
      ExpectStrictlySame(*back.value(), *reparsed);
    }
  }
}

std::vector<uint64_t> Seeds() {
  if (const char* env = std::getenv("FSDM_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3};
}

TEST(OsonEncoderSweep, SeededCorpusKeepsEveryImageInvariant) {
  for (uint64_t seed : Seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const Doc& doc : Corpus(seed)) {
      SweepDocument(doc);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(OsonEncoderSweep, ImagesStraddlingTheNarrowOffsetRange) {
  bool narrow = false;
  bool wide = false;
  for (const Doc& doc : BoundaryDocs()) {
    SweepDocument(doc);
    if (HasFatalFailure()) return;
    Result<std::string> image = Encode(*doc.tree);
    ASSERT_TRUE(image.ok());
    RawImage raw(image.value(), nullptr);
    raw.Check();
    (raw.off_width() == 2 ? narrow : wide) = true;
  }
  EXPECT_TRUE(narrow && wide) << "the boundary documents must land on both "
                                 "sides of the 2-byte offset range";
}

TEST(OsonEncoderSweep, SharedDictionaryImages) {
  for (uint64_t seed : Seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<Doc> docs = Corpus(seed);
    SetEncoder enc;
    for (const Doc& doc : docs) enc.CollectNames(*doc.tree);
    ASSERT_TRUE(enc.FinalizeDictionary().ok());
    for (const Doc& doc : docs) {
      SCOPED_TRACE(doc.label);
      Result<std::string> image = enc.Encode(*doc.tree);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      RawImage raw(image.value(), &enc.dictionary());
      ASSERT_NO_FATAL_FAILURE(raw.Check());
      CheckLeafSharing(raw, true);
      Result<OsonDom> dom = OpenSetImage(image.value(), &enc.dictionary());
      ASSERT_TRUE(dom.ok()) << dom.status().ToString();
      ASSERT_NO_FATAL_FAILURE(
          ExpectDomMatches(dom.value(), dom.value().root(), *doc.tree));
    }
  }
}

}  // namespace
}  // namespace fsdm::oson
