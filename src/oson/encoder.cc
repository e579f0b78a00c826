#include <algorithm>
#include <cstring>
#include <map>
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

struct DictEntry {
  uint32_t hash;
  std::string name;
  uint32_t id = 0;  // ordinal in (hash, name) order
};

// Collects distinct field names from the tree.
void CollectNames(const json::JsonNode& node,
                  std::map<std::string, DictEntry>* names) {
  switch (node.kind()) {
    case json::NodeKind::kObject:
      for (size_t i = 0; i < node.field_count(); ++i) {
        const std::string& name = node.field_name(i);
        if (!names->count(name)) {
          (*names)[name] = DictEntry{FieldNameHash(name), name};
        }
        CollectNames(*node.field_value(i), names);
      }
      break;
    case json::NodeKind::kArray:
      for (size_t i = 0; i < node.array_size(); ++i) {
        CollectNames(*node.element(i), names);
      }
      break;
    case json::NodeKind::kScalar:
      break;
  }
}

class Encoder {
 public:
  Encoder(const EncodeOptions& options, uint8_t off_width,
          const SharedDictionary* ext_dict = nullptr)
      : options_(options), off_width_(off_width), ext_dict_(ext_dict) {}

  Status Run(const json::JsonNode& doc, std::string* out) {
    size_t dict_size = 0;
    if (ext_dict_ != nullptr) {
      // Set encoding: ids come from the shared dictionary; the image
      // carries no dictionary segment of its own.
      dict_size = ext_dict_->field_count();
      id_width_ = dict_size <= 0xFF ? 1 : (dict_size <= 0xFFFF ? 2 : 4);
      return RunBody(doc, out, dict_size);
    }
    // 1. Build the field-id-name dictionary: entries sorted by (hash, name);
    //    the ordinal position is the field id (§4.2.1).
    std::map<std::string, DictEntry> names;
    CollectNames(doc, &names);
    dict_.reserve(names.size());
    for (auto& [name, entry] : names) dict_.push_back(entry);
    std::sort(dict_.begin(), dict_.end(), [](const DictEntry& a,
                                             const DictEntry& b) {
      if (a.hash != b.hash) return a.hash < b.hash;
      return a.name < b.name;
    });
    for (uint32_t i = 0; i < dict_.size(); ++i) {
      dict_[i].id = i;
      id_by_name_[dict_[i].name] = i;
    }
    id_width_ = dict_.size() <= 0xFF ? 1 : (dict_.size() <= 0xFFFF ? 2 : 4);
    BuildNameBlob();
    return RunBody(doc, out, dict_.size());
  }

 private:
  Status RunBody(const json::JsonNode& doc, std::string* out,
                 size_t dict_size) {
    // 2. Emit tree nodes post-order (children before parents) so child
    //    offsets are known when the parent is written; leaves stream into
    //    the value segment as encountered.
    uint64_t root_offset = 0;
    FSDM_RETURN_NOT_OK(EmitNode(doc, &root_offset));

    // 3. Bounds checks for the narrow-offset encoding.
    if (off_width_ == 2) {
      if (tree_.size() > 0xFFFF || values_.size() > 0xFFFF ||
          name_blob_.size() > 0xFFFF) {
        return Status::OutOfRange("image exceeds 2-byte offset range");
      }
    }

    // 4. Assemble the image into an exactly sized buffer: one allocation,
    //    and no spare capacity left resident in holders that keep the
    //    image as returned (shared IMC payloads).
    out->clear();
    size_t dict_bytes = 0;
    if (ext_dict_ == nullptr) {
      dict_bytes = dict_.size() * (4 + static_cast<size_t>(off_width_)) +
                   name_blob_.size();
    }
    out->reserve(internal::kHeaderSize + dict_bytes + tree_.size() +
                 values_.size());
    out->append(internal::kMagic, 4);
    out->push_back(static_cast<char>(internal::kVersion));
    uint8_t flags = 0;
    if (off_width_ == 4) flags |= internal::kFlagWideOffsets;
    if (!options_.dedup_leaf_values || options_.updatable) {
      flags |= internal::kFlagUnsharedLeaves;
    }
    if (ext_dict_ != nullptr) flags |= internal::kFlagExternalDict;
    flags |= static_cast<uint8_t>((id_width_ == 1 ? 0 : (id_width_ == 2 ? 1 : 2))
                                  << internal::kFlagIdWidthShift);
    out->push_back(static_cast<char>(flags));
    PutFixed32(out, static_cast<uint32_t>(dict_size));
    PutFixed32(out, static_cast<uint32_t>(name_blob_.size()));
    PutFixed32(out, static_cast<uint32_t>(tree_.size()));
    PutFixed32(out, static_cast<uint32_t>(values_.size()));
    PutFixed32(out, static_cast<uint32_t>(root_offset));
    if (ext_dict_ == nullptr) {
      for (const DictEntry& e : dict_) PutFixed32(out, e.hash);
      for (const DictEntry& e : dict_) PutOffset(out, name_offsets_[e.id]);
      out->append(name_blob_);
    }
    out->append(tree_);
    out->append(values_);
    return Status::Ok();
  }

  // Lays out the name blob and per-field name offsets; requires the sorted
  // dictionary with assigned ids.
  void BuildNameBlob() {
    name_offsets_.resize(dict_.size());
    for (const DictEntry& e : dict_) {
      name_offsets_[e.id] = name_blob_.size();
      PutVarint32(&name_blob_, static_cast<uint32_t>(e.name.size()));
      name_blob_.append(e.name);
    }
  }

  void PutOffset(std::string* dst, uint64_t off) {
    if (off_width_ == 2) {
      PutFixed16(dst, static_cast<uint16_t>(off));
    } else {
      PutFixed32(dst, static_cast<uint32_t>(off));
    }
  }

  void PutFieldId(std::string* dst, uint32_t id) {
    if (id_width_ == 1) {
      dst->push_back(static_cast<char>(id));
    } else if (id_width_ == 2) {
      PutFixed16(dst, static_cast<uint16_t>(id));
    } else {
      PutFixed32(dst, id);
    }
  }

  // Appends the leaf encoding for `v`, returning its value-segment offset.
  // With dedup enabled, identical encodings share one slot.
  Status EmitLeaf(const Value& v, Subtype* subtype, uint64_t* value_offset) {
    std::string enc;
    switch (v.type()) {
      case ScalarType::kInt64:
        if (options_.numbers_as_double) {
          *subtype = internal::kSubDouble;
          uint64_t bits;
          double d = static_cast<double>(v.AsInt64());
          std::memcpy(&bits, &d, sizeof(bits));
          PutFixed32(&enc, static_cast<uint32_t>(bits));
          PutFixed32(&enc, static_cast<uint32_t>(bits >> 32));
        } else {
          *subtype = internal::kSubDecimal;
          std::string dec;
          Decimal::FromInt64(v.AsInt64()).EncodeBinary(&dec);
          PutVarint32(&enc, static_cast<uint32_t>(dec.size()));
          enc += dec;
        }
        break;
      case ScalarType::kDecimal:
        if (options_.numbers_as_double) {
          *subtype = internal::kSubDouble;
          uint64_t bits;
          double d = v.AsDecimal().ToDouble();
          std::memcpy(&bits, &d, sizeof(bits));
          PutFixed32(&enc, static_cast<uint32_t>(bits));
          PutFixed32(&enc, static_cast<uint32_t>(bits >> 32));
        } else {
          *subtype = internal::kSubDecimal;
          std::string dec;
          v.AsDecimal().EncodeBinary(&dec);
          PutVarint32(&enc, static_cast<uint32_t>(dec.size()));
          enc += dec;
        }
        break;
      case ScalarType::kDouble: {
        *subtype = internal::kSubDouble;
        uint64_t bits;
        double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        PutFixed32(&enc, static_cast<uint32_t>(bits));
        PutFixed32(&enc, static_cast<uint32_t>(bits >> 32));
        break;
      }
      case ScalarType::kString:
        *subtype = internal::kSubString;
        PutVarint32(&enc, static_cast<uint32_t>(v.AsString().size()));
        enc += v.AsString();
        break;
      case ScalarType::kDate:
        *subtype = internal::kSubDate;
        PutFixed32(&enc, static_cast<uint32_t>(v.AsDate()));
        break;
      case ScalarType::kTimestamp: {
        *subtype = internal::kSubTimestamp;
        uint64_t bits = static_cast<uint64_t>(v.AsTimestamp());
        PutFixed32(&enc, static_cast<uint32_t>(bits));
        PutFixed32(&enc, static_cast<uint32_t>(bits >> 32));
        break;
      }
      case ScalarType::kBinary:
        *subtype = internal::kSubBinary;
        PutVarint32(&enc, static_cast<uint32_t>(v.AsBinary().size()));
        enc += v.AsBinary();
        break;
      default:
        return Status::Internal("inline subtype reached EmitLeaf");
    }

    bool share = options_.dedup_leaf_values && !options_.updatable;
    if (share) {
      auto it = leaf_cache_.find(enc);
      if (it != leaf_cache_.end()) {
        *value_offset = it->second;
        return Status::Ok();
      }
    }
    *value_offset = values_.size();
    values_.append(enc);
    if (share) leaf_cache_.emplace(std::move(enc), *value_offset);
    return Status::Ok();
  }

  Status EmitNode(const json::JsonNode& node, uint64_t* offset_out) {
    switch (node.kind()) {
      case json::NodeKind::kObject: {
        size_t n = node.field_count();
        // Children first.
        std::vector<std::pair<uint32_t, uint64_t>> children;  // (id, offset)
        children.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          uint64_t child_off = 0;
          FSDM_RETURN_NOT_OK(EmitNode(*node.field_value(i), &child_off));
          FSDM_ASSIGN_OR_RETURN(uint32_t id, ResolveId(node.field_name(i)));
          children.emplace_back(id, child_off);
        }
        // Child entries sorted by field id for binary-search lookup.
        std::sort(children.begin(), children.end());
        *offset_out = tree_.size();
        tree_.push_back(static_cast<char>(internal::kKindObject));
        PutVarint32(&tree_, static_cast<uint32_t>(n));
        for (const auto& [id, off] : children) PutFieldId(&tree_, id);
        for (const auto& [id, off] : children) PutOffset(&tree_, off);
        return Status::Ok();
      }
      case json::NodeKind::kArray: {
        size_t n = node.array_size();
        std::vector<uint64_t> offsets(n);
        for (size_t i = 0; i < n; ++i) {
          FSDM_RETURN_NOT_OK(EmitNode(*node.element(i), &offsets[i]));
        }
        *offset_out = tree_.size();
        tree_.push_back(static_cast<char>(internal::kKindArray));
        PutVarint32(&tree_, static_cast<uint32_t>(n));
        for (uint64_t off : offsets) PutOffset(&tree_, off);
        return Status::Ok();
      }
      case json::NodeKind::kScalar: {
        const Value& v = node.scalar();
        *offset_out = tree_.size();
        if (v.is_null()) {
          tree_.push_back(
              static_cast<char>(internal::kKindScalar | internal::kSubNull));
        } else if (v.type() == ScalarType::kBool) {
          tree_.push_back(static_cast<char>(
              internal::kKindScalar |
              (v.AsBool() ? internal::kSubTrue : internal::kSubFalse)));
        } else {
          Subtype sub = internal::kSubNull;
          uint64_t value_off = 0;
          FSDM_RETURN_NOT_OK(EmitLeaf(v, &sub, &value_off));
          tree_.push_back(static_cast<char>(internal::kKindScalar | sub));
          PutOffset(&tree_, value_off);
        }
        return Status::Ok();
      }
    }
    return Status::Internal("unreachable node kind");
  }

  Result<uint32_t> ResolveId(const std::string& name) const {
    if (ext_dict_ != nullptr) {
      std::optional<uint32_t> id =
          ext_dict_->LookupId(name, FieldNameHash(name));
      if (!id.has_value()) {
        return Status::InvalidArgument(
            "field '" + name + "' missing from the shared dictionary");
      }
      return *id;
    }
    return id_by_name_.at(name);
  }

  std::vector<DictEntry> dict_;
  const EncodeOptions& options_;
  const SharedDictionary* ext_dict_;
  uint8_t off_width_;
  uint8_t id_width_ = 1;
  std::map<std::string, uint32_t> id_by_name_;
  std::vector<uint64_t> name_offsets_;
  std::string name_blob_;
  std::string tree_;
  std::string values_;
  std::map<std::string, uint64_t> leaf_cache_;
};

}  // namespace

Result<std::string> Encode(const json::JsonNode& doc,
                           const EncodeOptions& options) {
  // Simulated codec failure before any bytes are produced.
  FSDM_FAULT_POINT("oson.encode");
  // Optimistic narrow-offset encode; fall back to 4-byte offsets when the
  // image is too large.
  FSDM_TRACE_SPAN(span, "oson", "oson.encode");
  for (uint8_t width : {uint8_t{2}, uint8_t{4}}) {
    Encoder enc(options, width);
    std::string out;
    Status st = enc.Run(doc, &out);
    if (st.ok()) {
      FSDM_COUNT("fsdm_oson_encodes_total", 1);
      FSDM_COUNT("fsdm_oson_encode_bytes_total", out.size());
      return out;
    }
    if (st.code() != StatusCode::kOutOfRange) return st;
  }
  return Status::Internal("unreachable");
}

// Used by SetEncoder (set_encoding.cc).
Result<std::string> EncodeWithSharedDictionary(
    const json::JsonNode& doc, const EncodeOptions& options,
    const SharedDictionary& dict) {
  FSDM_TRACE_SPAN(span, "oson", "oson.encode");
  for (uint8_t width : {uint8_t{2}, uint8_t{4}}) {
    Encoder enc(options, width, &dict);
    std::string out;
    Status st = enc.Run(doc, &out);
    if (st.ok()) {
      FSDM_COUNT("fsdm_oson_encodes_total", 1);
      FSDM_COUNT("fsdm_oson_encode_bytes_total", out.size());
      return out;
    }
    if (st.code() != StatusCode::kOutOfRange) return st;
  }
  return Status::Internal("unreachable");
}

Result<std::string> EncodeFromText(std::string_view json_text,
                                   const EncodeOptions& options) {
  FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> doc,
                        json::Parse(json_text));
  return Encode(*doc, options);
}

}  // namespace fsdm::oson
