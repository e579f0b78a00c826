#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/varint.h"
#include "fault/fault.h"
#include "json/parser.h"
#include "oson/format.h"
#include "oson/oson.h"
#include "oson/set_encoding.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace fsdm::oson {

namespace {

using internal::Subtype;

// Slot of an open-addressing table: Fibonacci hashing of a 32-bit hash
// into a power-of-two table of 2^bits slots.
size_t HomeSlot(uint32_t hash, int bits) {
  return static_cast<size_t>((hash * 0x9E3779B9u) >> (32 - bits));
}

// Hash of a leaf's encoded bytes, for leaf sharing; a word at a time.
uint32_t LeafHash(const char* p, size_t n) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h = n * kMul;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  uint64_t w = 0;
  std::memcpy(&w, p, n);
  h = (h ^ w) * kMul;
  return static_cast<uint32_t>(h >> 32);
}

// Encodes one document. The image is built in two walks over the tree:
// the first interns field names into a flat table and fixes the
// (hash, name)-sorted dictionary, the second emits tree nodes post-order
// (children before parents, so child offsets are known when the parent is
// written) while leaves stream into the value segment. Nothing is
// allocated per field or per leaf: object children sit on one reusable
// stack, and a leaf is encoded in place at the end of the value segment,
// then dropped again if identical bytes are already there.
class Encoder {
 public:
  Encoder(const EncodeOptions& options, const SharedDictionary* ext_dict)
      : options_(options),
        ext_dict_(ext_dict),
        share_leaves_(options.dedup_leaf_values && !options.updatable) {
    // Room for a typical document up front, so the segments and tables do
    // not reallocate their way up from empty.
    names_.reserve(64);
    field_names_.reserve(64);
    name_blob_.reserve(512);
    tree_.reserve(1024);
    values_.reserve(1024);
    stack_.reserve(64);
  }

  Status Run(const json::JsonNode& doc, std::string* out) {
    size_t dict_size = 0;
    if (ext_dict_ != nullptr) {
      // Set encoding: ids come from the shared dictionary; the image
      // carries no dictionary segment of its own.
      dict_size = ext_dict_->field_count();
    } else {
      // The field-id-name dictionary: entries sorted by (hash, name); the
      // ordinal position is the field id (§4.2.1).
      name_index_.assign(size_t{1} << name_bits_, 0);
      CollectNames(doc);
      BuildDictionary();
      dict_size = names_.size();
    }
    id_width_ = dict_size <= 0xFF ? 1 : (dict_size <= 0xFFFF ? 2 : 4);
    // Optimistic narrow-offset encode; fall back to 4-byte offsets when
    // the image is too large. The dictionary does not depend on the width.
    for (uint8_t width : {uint8_t{2}, uint8_t{4}}) {
      off_width_ = width;
      Status st = width == 2 && name_blob_.size() > 0xFFFF
                      ? Status::OutOfRange("image exceeds 2-byte offset range")
                      : EmitBody(doc, out, dict_size);
      if (st.code() != StatusCode::kOutOfRange) return st;
    }
    return Status::Internal("unreachable");
  }

 private:
  struct NameEntry {
    std::string_view name;  // points into the document being encoded
    uint32_t hash;
    uint32_t id;           // ordinal in (hash, name) order
    uint32_t blob_offset;  // of its varint length in the name blob
  };

  struct LeafEntry {
    uint32_t hash;
    uint32_t offset;  // in the value segment
    uint32_t size;    // 0 marks an empty slot; leaves are never empty
  };

  // --- Dictionary ----------------------------------------------------------

  // Interns every field name and records, in pre-order, the name entry of
  // each field the emit walk will visit.
  void CollectNames(const json::JsonNode& node) {
    switch (node.kind()) {
      case json::NodeKind::kObject:
        for (size_t i = 0; i < node.field_count(); ++i) {
          field_names_.push_back(Intern(node.field_name(i)));
          CollectNames(*node.field_value(i));
        }
        break;
      case json::NodeKind::kArray:
        for (size_t i = 0; i < node.array_size(); ++i) {
          CollectNames(*node.element(i));
        }
        break;
      case json::NodeKind::kScalar:
        break;
    }
  }

  uint32_t Intern(std::string_view name) {
    const uint32_t hash = FieldNameHash(name);
    const size_t mask = name_index_.size() - 1;
    for (size_t i = HomeSlot(hash, name_bits_);; i = (i + 1) & mask) {
      const uint32_t slot = name_index_[i];
      if (slot == 0) {
        names_.push_back({name, hash, 0, 0});
        name_index_[i] = static_cast<uint32_t>(names_.size());
        if (names_.size() * 2 > name_index_.size()) GrowNameIndex();
        return static_cast<uint32_t>(names_.size() - 1);
      }
      const NameEntry& e = names_[slot - 1];
      if (e.hash == hash && e.name == name) return slot - 1;
    }
  }

  void GrowNameIndex() {
    ++name_bits_;
    name_index_.assign(size_t{1} << name_bits_, 0);
    const size_t mask = name_index_.size() - 1;
    for (uint32_t n = 0; n < names_.size(); ++n) {
      size_t i = HomeSlot(names_[n].hash, name_bits_);
      while (name_index_[i] != 0) i = (i + 1) & mask;
      name_index_[i] = n + 1;
    }
  }

  // Sorts the interned names by (hash, name), assigns ids, and lays out
  // the name blob in id order.
  void BuildDictionary() {
    by_id_.resize(names_.size());
    for (uint32_t n = 0; n < names_.size(); ++n) by_id_[n] = n;
    std::sort(by_id_.begin(), by_id_.end(), [&](uint32_t a, uint32_t b) {
      const NameEntry& x = names_[a];
      const NameEntry& y = names_[b];
      return x.hash != y.hash ? x.hash < y.hash : x.name < y.name;
    });
    for (uint32_t id = 0; id < by_id_.size(); ++id) {
      NameEntry& e = names_[by_id_[id]];
      e.id = id;
      e.blob_offset = static_cast<uint32_t>(name_blob_.size());
      PutVarint32(&name_blob_, static_cast<uint32_t>(e.name.size()));
      name_blob_.append(e.name);
    }
  }

  // --- Image ---------------------------------------------------------------

  Status EmitBody(const json::JsonNode& doc, std::string* out,
                  size_t dict_size) {
    tree_.clear();
    values_.clear();
    stack_.clear();
    leaf_index_.assign(size_t{1} << leaf_bits_, LeafEntry{0, 0, 0});
    leaf_count_ = 0;
    next_field_ = 0;
    uint32_t root_offset = 0;
    FSDM_RETURN_NOT_OK(EmitNode(doc, &root_offset));

    // Assemble the image into an exactly sized buffer: one allocation,
    // and no spare capacity left resident in holders that keep the image
    // as returned (shared IMC payloads).
    const bool self_contained = ext_dict_ == nullptr;
    const size_t dict_bytes =
        self_contained
            ? names_.size() * (4 + static_cast<size_t>(off_width_)) +
                  name_blob_.size()
            : 0;
    out->clear();
    out->reserve(internal::kHeaderSize + dict_bytes + tree_.size() +
                 values_.size());
    out->append(internal::kMagic, 4);
    out->push_back(static_cast<char>(internal::kVersion));
    uint8_t flags = 0;
    if (off_width_ == 4) flags |= internal::kFlagWideOffsets;
    if (!share_leaves_) flags |= internal::kFlagUnsharedLeaves;
    if (!self_contained) flags |= internal::kFlagExternalDict;
    flags |= static_cast<uint8_t>((id_width_ == 1 ? 0 : (id_width_ == 2 ? 1 : 2))
                                  << internal::kFlagIdWidthShift);
    out->push_back(static_cast<char>(flags));
    PutFixed32(out, static_cast<uint32_t>(dict_size));
    PutFixed32(out, static_cast<uint32_t>(name_blob_.size()));
    PutFixed32(out, static_cast<uint32_t>(tree_.size()));
    PutFixed32(out, static_cast<uint32_t>(values_.size()));
    PutFixed32(out, root_offset);
    if (self_contained) {
      for (uint32_t n : by_id_) PutFixed32(out, names_[n].hash);
      uint8_t* p = Extend(out, by_id_.size() * off_width_);
      for (uint32_t n : by_id_) p = PutOffset(p, names_[n].blob_offset);
      out->append(name_blob_);
    }
    out->append(tree_);
    out->append(values_);
    return Status::Ok();
  }

  // Appends n bytes to *s and returns where they start.
  static uint8_t* Extend(std::string* s, size_t n) {
    const size_t at = s->size();
    s->resize(at + n);
    return reinterpret_cast<uint8_t*>(s->data()) + at;
  }

  uint8_t* PutOffset(uint8_t* p, uint32_t off) const {
    if (off_width_ == 2) {
      EncodeFixed16(p, static_cast<uint16_t>(off));
    } else {
      EncodeFixed32(p, off);
    }
    return p + off_width_;
  }

  uint8_t* PutFieldId(uint8_t* p, uint32_t id) const {
    if (id_width_ == 1) {
      *p = static_cast<uint8_t>(id);
    } else if (id_width_ == 2) {
      EncodeFixed16(p, static_cast<uint16_t>(id));
    } else {
      EncodeFixed32(p, id);
    }
    return p + id_width_;
  }

  // The narrow encoding fails as soon as a segment outgrows it; segments
  // only grow, so this decides exactly as a check of the finished image.
  Status CheckWidth() const {
    if (off_width_ == 2 && (tree_.size() > 0xFFFF || values_.size() > 0xFFFF)) {
      return Status::OutOfRange("image exceeds 2-byte offset range");
    }
    return Status::Ok();
  }

  Status EmitNode(const json::JsonNode& node, uint32_t* offset_out) {
    switch (node.kind()) {
      case json::NodeKind::kObject: {
        const size_t n = node.field_count();
        const size_t base = stack_.size();
        // Children first; each child pushes (field id, offset) packed so
        // that sorting the integers sorts the entries by field id for
        // binary-search lookup.
        for (size_t i = 0; i < n; ++i) {
          const size_t field = next_field_++;
          uint32_t child_off = 0;
          FSDM_RETURN_NOT_OK(EmitNode(*node.field_value(i), &child_off));
          uint32_t id = 0;
          if (ext_dict_ != nullptr) {
            FSDM_ASSIGN_OR_RETURN(id, ExternalId(node.field_name(i)));
          } else {
            id = names_[field_names_[field]].id;
          }
          stack_.push_back(uint64_t{id} << 32 | child_off);
        }
        std::sort(stack_.begin() + base, stack_.end());
        *offset_out = static_cast<uint32_t>(tree_.size());
        tree_.push_back(static_cast<char>(internal::kKindObject));
        PutVarint32(&tree_, static_cast<uint32_t>(n));
        uint8_t* p = Extend(&tree_, n * (id_width_ + off_width_));
        for (size_t i = base; i < base + n; ++i) {
          p = PutFieldId(p, static_cast<uint32_t>(stack_[i] >> 32));
        }
        for (size_t i = base; i < base + n; ++i) {
          p = PutOffset(p, static_cast<uint32_t>(stack_[i]));
        }
        stack_.resize(base);
        return CheckWidth();
      }
      case json::NodeKind::kArray: {
        const size_t n = node.array_size();
        const size_t base = stack_.size();
        for (size_t i = 0; i < n; ++i) {
          uint32_t child_off = 0;
          FSDM_RETURN_NOT_OK(EmitNode(*node.element(i), &child_off));
          stack_.push_back(child_off);
        }
        *offset_out = static_cast<uint32_t>(tree_.size());
        tree_.push_back(static_cast<char>(internal::kKindArray));
        PutVarint32(&tree_, static_cast<uint32_t>(n));
        uint8_t* p = Extend(&tree_, n * off_width_);
        for (size_t i = base; i < base + n; ++i) {
          p = PutOffset(p, static_cast<uint32_t>(stack_[i]));
        }
        stack_.resize(base);
        return CheckWidth();
      }
      case json::NodeKind::kScalar: {
        const Value& v = node.scalar();
        *offset_out = static_cast<uint32_t>(tree_.size());
        if (v.is_null()) {
          tree_.push_back(
              static_cast<char>(internal::kKindScalar | internal::kSubNull));
        } else if (v.type() == ScalarType::kBool) {
          tree_.push_back(static_cast<char>(
              internal::kKindScalar |
              (v.AsBool() ? internal::kSubTrue : internal::kSubFalse)));
        } else {
          Subtype sub = internal::kSubNull;
          uint32_t value_off = 0;
          FSDM_RETURN_NOT_OK(EmitLeaf(v, &sub, &value_off));
          tree_.push_back(static_cast<char>(internal::kKindScalar | sub));
          PutOffset(Extend(&tree_, off_width_), value_off);
        }
        return CheckWidth();
      }
    }
    return Status::Internal("unreachable node kind");
  }

  Result<uint32_t> ExternalId(const std::string& name) const {
    std::optional<uint32_t> id =
        ext_dict_->LookupId(name, FieldNameHash(name));
    if (!id.has_value()) {
      return Status::InvalidArgument(
          "field '" + name + "' missing from the shared dictionary");
    }
    return *id;
  }

  void PutDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    PutFixed32(&values_, static_cast<uint32_t>(bits));
    PutFixed32(&values_, static_cast<uint32_t>(bits >> 32));
  }

  // Varint length + the Decimal binary image left in scratch_.
  void PutScratchDecimal() {
    PutVarint32(&values_, static_cast<uint32_t>(scratch_.size()));
    values_.append(scratch_);
  }

  // Appends the leaf encoding for `v` at the end of the value segment and
  // returns its offset. With sharing on, identical encodings share one
  // slot: the new bytes are dropped again when they are already there.
  Status EmitLeaf(const Value& v, Subtype* subtype, uint32_t* value_offset) {
    const size_t start = values_.size();
    switch (v.type()) {
      case ScalarType::kInt64:
        if (options_.numbers_as_double) {
          *subtype = internal::kSubDouble;
          PutDouble(static_cast<double>(v.AsInt64()));
        } else {
          *subtype = internal::kSubDecimal;
          scratch_.clear();
          Decimal::EncodeInt64Binary(v.AsInt64(), &scratch_);
          PutScratchDecimal();
        }
        break;
      case ScalarType::kDecimal:
        if (options_.numbers_as_double) {
          *subtype = internal::kSubDouble;
          PutDouble(v.AsDecimal().ToDouble());
        } else {
          *subtype = internal::kSubDecimal;
          scratch_.clear();
          v.AsDecimal().EncodeBinary(&scratch_);
          PutScratchDecimal();
        }
        break;
      case ScalarType::kDouble:
        *subtype = internal::kSubDouble;
        PutDouble(v.AsDouble());
        break;
      case ScalarType::kString:
        *subtype = internal::kSubString;
        PutVarint32(&values_, static_cast<uint32_t>(v.AsString().size()));
        values_.append(v.AsString());
        break;
      case ScalarType::kDate:
        *subtype = internal::kSubDate;
        PutFixed32(&values_, static_cast<uint32_t>(v.AsDate()));
        break;
      case ScalarType::kTimestamp: {
        *subtype = internal::kSubTimestamp;
        uint64_t bits = static_cast<uint64_t>(v.AsTimestamp());
        PutFixed32(&values_, static_cast<uint32_t>(bits));
        PutFixed32(&values_, static_cast<uint32_t>(bits >> 32));
        break;
      }
      case ScalarType::kBinary:
        *subtype = internal::kSubBinary;
        PutVarint32(&values_, static_cast<uint32_t>(v.AsBinary().size()));
        values_.append(v.AsBinary());
        break;
      default:
        return Status::Internal("inline subtype reached EmitLeaf");
    }
    *value_offset = static_cast<uint32_t>(start);
    if (share_leaves_) *value_offset = ShareLeaf(start);
    return Status::Ok();
  }

  // Looks up the leaf bytes at [start, end of the value segment) among
  // the leaves emitted so far. A hit truncates them away and returns the
  // earlier copy's offset; a miss records them and returns `start`.
  uint32_t ShareLeaf(size_t start) {
    const char* bytes = values_.data() + start;
    const uint32_t size = static_cast<uint32_t>(values_.size() - start);
    const uint32_t hash = LeafHash(bytes, size);
    const size_t mask = leaf_index_.size() - 1;
    for (size_t i = HomeSlot(hash, leaf_bits_);; i = (i + 1) & mask) {
      LeafEntry& e = leaf_index_[i];
      if (e.size == 0) {
        e = {hash, static_cast<uint32_t>(start), size};
        if (++leaf_count_ * 2 > leaf_index_.size()) GrowLeafIndex();
        return static_cast<uint32_t>(start);
      }
      if (e.hash == hash && e.size == size &&
          std::memcmp(values_.data() + e.offset, bytes, size) == 0) {
        values_.resize(start);
        return e.offset;
      }
    }
  }

  void GrowLeafIndex() {
    std::vector<LeafEntry> old;
    old.swap(leaf_index_);
    ++leaf_bits_;
    leaf_index_.assign(size_t{1} << leaf_bits_, LeafEntry{0, 0, 0});
    const size_t mask = leaf_index_.size() - 1;
    for (const LeafEntry& e : old) {
      if (e.size == 0) continue;
      size_t i = HomeSlot(e.hash, leaf_bits_);
      while (leaf_index_[i].size != 0) i = (i + 1) & mask;
      leaf_index_[i] = e;
    }
  }

  const EncodeOptions& options_;
  const SharedDictionary* ext_dict_;
  const bool share_leaves_;
  uint8_t off_width_ = 2;
  uint8_t id_width_ = 1;

  // Dictionary (self-contained images only).
  std::vector<NameEntry> names_;       // distinct names, first-seen order
  std::vector<uint32_t> name_index_;   // open addressing; 0 = empty, else
                                       // index into names_ + 1
  int name_bits_ = 6;
  std::vector<uint32_t> field_names_;  // names_ index of each field, pre-order
  std::vector<uint32_t> by_id_;        // names_ index of each field id
  std::string name_blob_;

  // Segments and emit state.
  std::string tree_;
  std::string values_;
  std::vector<uint64_t> stack_;  // pending children: id << 32 | offset
  size_t next_field_ = 0;        // cursor into field_names_
  std::vector<LeafEntry> leaf_index_;
  int leaf_bits_ = 6;
  size_t leaf_count_ = 0;
  std::string scratch_;  // one Decimal binary image
};

Result<std::string> EncodeImage(const json::JsonNode& doc,
                                const EncodeOptions& options,
                                const SharedDictionary* dict) {
  FSDM_TRACE_SPAN(span, "oson", "oson.encode");
  Encoder enc(options, dict);
  std::string out;
  FSDM_RETURN_NOT_OK(enc.Run(doc, &out));
  FSDM_COUNT("fsdm_oson_encodes_total", 1);
  FSDM_COUNT("fsdm_oson_encode_bytes_total", out.size());
  return out;
}

}  // namespace

Result<std::string> Encode(const json::JsonNode& doc,
                           const EncodeOptions& options) {
  // Simulated codec failure before any bytes are produced.
  FSDM_FAULT_POINT("oson.encode");
  return EncodeImage(doc, options, nullptr);
}

// Used by SetEncoder (set_encoding.cc).
Result<std::string> EncodeWithSharedDictionary(
    const json::JsonNode& doc, const EncodeOptions& options,
    const SharedDictionary& dict) {
  return EncodeImage(doc, options, &dict);
}

Result<std::string> EncodeFromText(std::string_view json_text,
                                   const EncodeOptions& options) {
  FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> doc,
                        json::Parse(json_text));
  return Encode(*doc, options);
}

}  // namespace fsdm::oson
