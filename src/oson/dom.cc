#include <cstring>

#include "common/hash.h"
#include "common/varint.h"
#include "fault/fault.h"
#include "oson/format.h"
#include "oson/oson.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace fsdm::oson {

namespace {
using internal::Subtype;
}  // namespace

// Implemented in set_encoding.cc; thin shims so this file needs only the
// forward declaration of SharedDictionary.
std::string_view SharedDictFieldName(const SharedDictionary& dict,
                                     uint32_t id);
uint32_t SharedDictFieldHash(const SharedDictionary& dict, uint32_t id);
std::optional<uint32_t> SharedDictLookupId(const SharedDictionary& dict,
                                           std::string_view name,
                                           uint32_t hash);

Result<OsonDom> OsonDom::Open(std::string_view bytes) {
  return OpenInternal(bytes, nullptr);
}

Result<OsonDom> OsonDom::OpenInternal(std::string_view bytes,
                                      const SharedDictionary* dictionary) {
  // Simulated read failure before the image is inspected.
  FSDM_FAULT_POINT("oson.decode.open");
  if (bytes.size() < internal::kHeaderSize) {
    return Status::Corruption("OSON image smaller than header");
  }
  if (std::memcmp(bytes.data(), internal::kMagic, 4) != 0) {
    return Status::Corruption("bad OSON magic");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  if (p[4] != internal::kVersion) {
    return Status::Corruption("unsupported OSON version");
  }
  uint8_t flags = p[5];
  bool external = (flags & internal::kFlagExternalDict) != 0;
  if (external && dictionary == nullptr) {
    return Status::InvalidArgument(
        "set-encoded image requires its shared dictionary (OpenSetImage)");
  }
  if (!external && dictionary != nullptr) {
    return Status::InvalidArgument(
        "self-contained image opened with a shared dictionary");
  }

  OsonDom dom;
  dom.ext_dict_ = dictionary;
  dom.data_ = bytes;
  dom.off_width_ = (flags & internal::kFlagWideOffsets) ? 4 : 2;
  switch ((flags >> internal::kFlagIdWidthShift) & 0x3) {
    case 0:
      dom.id_width_ = 1;
      break;
    case 1:
      dom.id_width_ = 2;
      break;
    default:
      dom.id_width_ = 4;
      break;
  }
  dom.field_count_ = DecodeFixed32(p + 6);
  dom.dict_names_size_ = DecodeFixed32(p + 10);
  dom.tree_size_ = DecodeFixed32(p + 14);
  dom.values_size_ = DecodeFixed32(p + 18);
  dom.root_offset_ = DecodeFixed32(p + 22);

  dom.dict_hash_start_ = internal::kHeaderSize;
  if (external) {
    // No in-image dictionary; the tree segment starts right after the
    // header. field_count_ in the header is the shared dictionary's size
    // (it determines the field-id width).
    dom.dict_nameoff_start_ = dom.dict_hash_start_;
    dom.dict_names_start_ = dom.dict_hash_start_;
    dom.tree_start_ = internal::kHeaderSize;
  } else {
    dom.dict_nameoff_start_ = dom.dict_hash_start_ + 4ull * dom.field_count_;
    dom.dict_names_start_ =
        dom.dict_nameoff_start_ +
        static_cast<size_t>(dom.off_width_) * dom.field_count_;
    dom.tree_start_ = dom.dict_names_start_ + dom.dict_names_size_;
  }
  dom.values_start_ = dom.tree_start_ + dom.tree_size_;

  if (dom.values_start_ + dom.values_size_ != bytes.size()) {
    return Status::Corruption("OSON segment sizes do not match image size");
  }
  if (dom.root_offset_ >= dom.tree_size_ && dom.tree_size_ > 0) {
    return Status::Corruption("OSON root offset outside tree segment");
  }
  if (dom.tree_size_ == 0) {
    return Status::Corruption("OSON image has empty tree segment");
  }
  return dom;
}

json::NodeKind OsonDom::GetNodeType(NodeRef node) const {
  // Out-of-range refs (possible only on corrupted images) degrade to a
  // scalar whose GetScalarValue reports corruption.
  if (node >= tree_size_) return json::NodeKind::kScalar;
  uint8_t header = *TreePtr(node);
  switch (header & internal::kKindMask) {
    case internal::kKindObject:
      return json::NodeKind::kObject;
    case internal::kKindArray:
      return json::NodeKind::kArray;
    default:
      return json::NodeKind::kScalar;
  }
}

uint32_t OsonDom::ReadFieldId(const uint8_t* p, size_t i) const {
  switch (id_width_) {
    case 1:
      return p[i];
    case 2:
      return DecodeFixed16(p + i * 2);
    default:
      return DecodeFixed32(p + i * 4);
  }
}

json::Dom::NodeRef OsonDom::ReadOffset(const uint8_t* p, size_t i) const {
  if (off_width_ == 2) return DecodeFixed16(p + i * 2);
  return DecodeFixed32(p + i * 4);
}

bool OsonDom::DecodeContainer(NodeRef node, uint32_t* count,
                              const uint8_t** ids,
                              const uint8_t** offsets) const {
  if (node >= tree_size_) return false;
  const uint8_t* p = TreePtr(node);
  uint8_t kind = *p & internal::kKindMask;
  const uint8_t* limit =
      reinterpret_cast<const uint8_t*>(data_.data()) + tree_start_ + tree_size_;
  const uint8_t* q = GetVarint32(p + 1, limit, count);
  if (q == nullptr) return false;
  // Corruption guard: the id/offset arrays must fit inside the tree
  // segment, which also bounds the claimed child count.
  size_t per_child = (kind == internal::kKindObject ? id_width_ : 0) +
                     static_cast<size_t>(off_width_);
  if (static_cast<size_t>(limit - q) / per_child < *count) return false;
  if (kind == internal::kKindObject) {
    *ids = q;
    *offsets = q + static_cast<size_t>(*count) * id_width_;
  } else {
    *ids = nullptr;
    *offsets = q;
  }
  return true;
}

size_t OsonDom::GetFieldCount(NodeRef object) const {
  uint32_t count = 0;
  const uint8_t *ids, *offsets;
  if (!DecodeContainer(object, &count, &ids, &offsets)) return 0;
  return count;
}

void OsonDom::GetFieldAt(NodeRef object, size_t i, std::string_view* name,
                         NodeRef* child) const {
  uint32_t count = 0;
  const uint8_t *ids, *offsets;
  if (!DecodeContainer(object, &count, &ids, &offsets) || i >= count) {
    *child = kInvalidNode;
    return;
  }
  uint32_t id = ReadFieldId(ids, i);
  *name = FieldName(id);
  *child = ReadOffset(offsets, i);
}

std::string_view OsonDom::FieldName(uint32_t field_id) const {
  if (field_id >= field_count_) return {};
  if (ext_dict_ != nullptr) return SharedDictFieldName(*ext_dict_, field_id);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(data_.data());
  size_t name_off;
  if (off_width_ == 2) {
    name_off = DecodeFixed16(base + dict_nameoff_start_ + field_id * 2);
  } else {
    name_off = DecodeFixed32(base + dict_nameoff_start_ + field_id * 4);
  }
  // A corrupted image can carry a name offset or length pointing outside
  // the dictionary segment; clamp both before touching the bytes.
  if (name_off >= dict_names_size_) return {};
  const uint8_t* p = base + dict_names_start_ + name_off;
  const uint8_t* name_limit = base + dict_names_start_ + dict_names_size_;
  uint32_t len = 0;
  const uint8_t* q = GetVarint32(p, name_limit, &len);
  if (q == nullptr || len > static_cast<size_t>(name_limit - q)) return {};
  return std::string_view(reinterpret_cast<const char*>(q), len);
}

uint32_t OsonDom::FieldHash(uint32_t field_id) const {
  if (field_id >= field_count_) return 0;
  if (ext_dict_ != nullptr) return SharedDictFieldHash(*ext_dict_, field_id);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(data_.data());
  return DecodeFixed32(base + dict_hash_start_ + 4ull * field_id);
}

std::optional<uint32_t> OsonDom::LookupFieldId(std::string_view name,
                                               uint32_t hash) const {
  if (ext_dict_ != nullptr) return SharedDictLookupId(*ext_dict_, name, hash);
  // Binary search the hash-id array (sorted by hash, then name).
  uint32_t lo = 0, hi = field_count_;
  size_t probes = 0;
  while (lo < hi) {
    ++probes;
    uint32_t mid = lo + (hi - lo) / 2;
    if (FieldHash(mid) < hash) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  FSDM_OBSERVE_SIZE("fsdm_oson_dict_search_depth", probes);
  // Resolve collisions with a name check over the equal-hash run.
  for (uint32_t i = lo; i < field_count_ && FieldHash(i) == hash; ++i) {
    if (FieldName(i) == name) return i;
  }
  return std::nullopt;
}

json::Dom::NodeRef OsonDom::GetFieldValueById(NodeRef object,
                                              uint32_t field_id) const {
  uint32_t count = 0;
  const uint8_t *ids, *offsets;
  if (!DecodeContainer(object, &count, &ids, &offsets)) return kInvalidNode;
  // Binary search the sorted child field-id array (§4.2.2).
  uint32_t lo = 0, hi = count;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    uint32_t mid_id = ReadFieldId(ids, mid);
    if (mid_id < field_id) {
      lo = mid + 1;
    } else if (mid_id > field_id) {
      hi = mid;
    } else {
      return ReadOffset(offsets, mid);
    }
  }
  return kInvalidNode;
}

json::Dom::NodeRef OsonDom::GetFieldValue(NodeRef object,
                                          std::string_view name) const {
  std::optional<uint32_t> id = LookupFieldId(name, FieldNameHash(name));
  if (!id.has_value()) return kInvalidNode;
  return GetFieldValueById(object, *id);
}

json::Dom::NodeRef OsonDom::GetFieldValueHashed(
    NodeRef object, std::string_view name, uint32_t hash,
    uint32_t* cached_field_id) const {
  // Single-row look-back (§4.2.1): on homogeneous collections the id the
  // name resolved to in the previous document usually holds for this one,
  // skipping the dictionary search entirely.
  if (cached_field_id != nullptr && *cached_field_id < field_count_ &&
      FieldHash(*cached_field_id) == hash &&
      FieldName(*cached_field_id) == name) {
    return GetFieldValueById(object, *cached_field_id);
  }
  std::optional<uint32_t> id = LookupFieldId(name, hash);
  if (!id.has_value()) return kInvalidNode;
  if (cached_field_id != nullptr) *cached_field_id = *id;
  return GetFieldValueById(object, *id);
}

size_t OsonDom::GetArrayLength(NodeRef array) const {
  uint32_t count = 0;
  const uint8_t *ids, *offsets;
  if (!DecodeContainer(array, &count, &ids, &offsets)) return 0;
  return count;
}

json::Dom::NodeRef OsonDom::GetArrayElement(NodeRef array,
                                            size_t index) const {
  uint32_t count = 0;
  const uint8_t *ids, *offsets;
  if (!DecodeContainer(array, &count, &ids, &offsets) || index >= count) {
    return kInvalidNode;
  }
  return ReadOffset(offsets, index);
}

ScalarType OsonDom::GetScalarType(NodeRef scalar) const {
  uint8_t sub = *TreePtr(scalar) & internal::kSubtypeMask;
  switch (sub) {
    case internal::kSubNull:
      return ScalarType::kNull;
    case internal::kSubTrue:
    case internal::kSubFalse:
      return ScalarType::kBool;
    case internal::kSubDecimal:
      return ScalarType::kDecimal;
    case internal::kSubDouble:
      return ScalarType::kDouble;
    case internal::kSubString:
      return ScalarType::kString;
    case internal::kSubDate:
      return ScalarType::kDate;
    case internal::kSubTimestamp:
      return ScalarType::kTimestamp;
    default:
      return ScalarType::kBinary;
  }
}

Status OsonDom::GetScalarValue(NodeRef scalar, Value* out) const {
  if (scalar >= tree_size_) {
    return Status::Corruption("scalar node ref outside tree segment");
  }
  const uint8_t* p = TreePtr(scalar);
  uint8_t sub = *p & internal::kSubtypeMask;
  if (sub == internal::kSubNull) {
    *out = Value::Null();
    return Status::Ok();
  }
  if (sub == internal::kSubTrue || sub == internal::kSubFalse) {
    *out = Value::Bool(sub == internal::kSubTrue);
    return Status::Ok();
  }
  if (scalar + 1 + off_width_ > tree_size_) {
    return Status::Corruption("scalar value offset truncated");
  }
  uint64_t value_off = off_width_ == 2 ? DecodeFixed16(p + 1)
                                       : DecodeFixed32(p + 1);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(data_.data());
  const uint8_t* v = base + values_start_ + value_off;
  const uint8_t* limit = base + values_start_ + values_size_;
  if (v >= limit) return Status::Corruption("leaf offset out of range");

  switch (sub) {
    case internal::kSubDecimal: {
      uint32_t len = 0;
      const uint8_t* q = GetVarint32(v, limit, &len);
      if (q == nullptr || q + len > limit) {
        return Status::Corruption("truncated decimal leaf");
      }
      // Integral decimals surface on the int64 fast path, decoded without
      // building a Decimal.
      int64_t i = 0;
      if (Decimal::DecodeBinaryInt64(q, len, &i)) {
        *out = Value::Int64(i);
        return Status::Ok();
      }
      FSDM_ASSIGN_OR_RETURN(Decimal d, Decimal::DecodeBinary(q, len));
      if (d.TryToInt64(&i)) {
        *out = Value::Int64(i);
        return Status::Ok();
      }
      *out = Value::Dec(std::move(d));
      return Status::Ok();
    }
    case internal::kSubDouble: {
      if (v + 8 > limit) return Status::Corruption("truncated double leaf");
      uint64_t bits = static_cast<uint64_t>(DecodeFixed32(v)) |
                      (static_cast<uint64_t>(DecodeFixed32(v + 4)) << 32);
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *out = Value::Double(d);
      return Status::Ok();
    }
    case internal::kSubString: {
      uint32_t len = 0;
      const uint8_t* q = GetVarint32(v, limit, &len);
      if (q == nullptr || q + len > limit) {
        return Status::Corruption("truncated string leaf");
      }
      *out = Value::String(
          std::string(reinterpret_cast<const char*>(q), len));
      return Status::Ok();
    }
    case internal::kSubDate: {
      if (v + 4 > limit) return Status::Corruption("truncated date leaf");
      *out = Value::Date(static_cast<int32_t>(DecodeFixed32(v)));
      return Status::Ok();
    }
    case internal::kSubTimestamp: {
      if (v + 8 > limit) return Status::Corruption("truncated ts leaf");
      uint64_t bits = static_cast<uint64_t>(DecodeFixed32(v)) |
                      (static_cast<uint64_t>(DecodeFixed32(v + 4)) << 32);
      *out = Value::Timestamp(static_cast<int64_t>(bits));
      return Status::Ok();
    }
    case internal::kSubBinary: {
      uint32_t len = 0;
      const uint8_t* q = GetVarint32(v, limit, &len);
      if (q == nullptr || q + len > limit) {
        return Status::Corruption("truncated binary leaf");
      }
      *out = Value::Binary(
          std::string(reinterpret_cast<const char*>(q), len));
      return Status::Ok();
    }
    default:
      return Status::Corruption("unknown scalar subtype");
  }
}

SegmentStats OsonDom::segment_stats() const {
  SegmentStats s;
  s.total_size = data_.size();
  s.header_size = internal::kHeaderSize;
  s.dictionary_size = tree_start_ - dict_hash_start_;
  s.tree_size = tree_size_;
  s.values_size = values_size_;
  s.field_count = field_count_;
  return s;
}

namespace {

Result<std::unique_ptr<json::JsonNode>> DecodeNode(const OsonDom& dom,
                                                   json::Dom::NodeRef ref,
                                                   int depth = 0) {
  // Corrupted offsets can form reference cycles; bound the recursion.
  if (depth > 1024) {
    return Status::Corruption("OSON node graph too deep (cycle?)");
  }
  switch (dom.GetNodeType(ref)) {
    case json::NodeKind::kObject: {
      auto obj = json::JsonNode::MakeObject();
      size_t n = dom.GetFieldCount(ref);
      for (size_t i = 0; i < n; ++i) {
        std::string_view name;
        json::Dom::NodeRef child = json::Dom::kInvalidNode;
        dom.GetFieldAt(ref, i, &name, &child);
        if (child == json::Dom::kInvalidNode) {
          return Status::Corruption("OSON object child walk failed");
        }
        FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> sub,
                              DecodeNode(dom, child, depth + 1));
        obj->AddField(std::string(name), std::move(sub));
      }
      return obj;
    }
    case json::NodeKind::kArray: {
      auto arr = json::JsonNode::MakeArray();
      size_t n = dom.GetArrayLength(ref);
      for (size_t i = 0; i < n; ++i) {
        json::Dom::NodeRef child = dom.GetArrayElement(ref, i);
        if (child == json::Dom::kInvalidNode) {
          return Status::Corruption("OSON array child walk failed");
        }
        FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> sub,
                              DecodeNode(dom, child, depth + 1));
        arr->Append(std::move(sub));
      }
      return arr;
    }
    case json::NodeKind::kScalar: {
      Value v;
      FSDM_RETURN_NOT_OK(dom.GetScalarValue(ref, &v));
      return json::JsonNode::MakeScalar(std::move(v));
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<std::unique_ptr<json::JsonNode>> Decode(std::string_view bytes) {
  FSDM_COUNT("fsdm_oson_decodes_total", 1);
  FSDM_TRACE_SPAN(span, "oson", "oson.decode");
  span.AddNumberArg("bytes", static_cast<double>(bytes.size()));
  FSDM_ASSIGN_OR_RETURN(OsonDom dom, OsonDom::Open(bytes));
  return DecodeNode(dom, dom.root());
}

// ---------------------------------------------------------------------------
// OsonUpdater
// ---------------------------------------------------------------------------

Status OsonUpdater::UpdateLeaf(json::Dom::NodeRef ref,
                               const Value& new_value) {
  FSDM_ASSIGN_OR_RETURN(OsonDom dom, OsonDom::Open(*image_));
  const uint8_t* hdr = reinterpret_cast<const uint8_t*>(image_->data());
  if (!(hdr[5] & internal::kFlagUnsharedLeaves)) {
    return Status::Unsupported(
        "image encoded with shared leaves; re-encode with updatable=true");
  }
  if (dom.GetNodeType(ref) != json::NodeKind::kScalar) {
    return Status::InvalidArgument("node is not a scalar leaf");
  }

  // Resolve the node header and the current slot.
  SegmentStats stats = dom.segment_stats();
  size_t tree_start =
      internal::kHeaderSize + stats.dictionary_size + 0;  // dict incl names
  size_t values_start = tree_start + stats.tree_size;
  uint8_t* base = reinterpret_cast<uint8_t*>(image_->data());
  uint8_t* node = base + tree_start + ref;
  uint8_t sub = *node & internal::kSubtypeMask;
  uint8_t off_width = (hdr[5] & internal::kFlagWideOffsets) ? 4 : 2;

  // Inline booleans/null: toggling between true and false is in-place;
  // anything else changes the type class.
  if (internal::SubtypeIsInline(sub)) {
    if (new_value.type() == ScalarType::kBool &&
        (sub == internal::kSubTrue || sub == internal::kSubFalse)) {
      *node = static_cast<uint8_t>(
          internal::kKindScalar |
          (new_value.AsBool() ? internal::kSubTrue : internal::kSubFalse));
      return Status::Ok();
    }
    return Status::Unsupported("cannot retype an inline leaf in place");
  }

  uint64_t value_off = off_width == 2 ? DecodeFixed16(node + 1)
                                      : DecodeFixed32(node + 1);
  uint8_t* slot = base + values_start + value_off;
  uint8_t* limit = base + image_->size();

  // Encode the replacement payload.
  std::string enc;
  switch (sub) {
    case internal::kSubDecimal: {
      if (!new_value.IsNumeric()) {
        return Status::Unsupported("slot holds a number");
      }
      std::string dec;
      new_value.NumericAsDecimal().EncodeBinary(&dec);
      PutVarint32(&enc, static_cast<uint32_t>(dec.size()));
      enc += dec;
      break;
    }
    case internal::kSubDouble: {
      if (!new_value.IsNumeric()) {
        return Status::Unsupported("slot holds a number");
      }
      uint64_t bits;
      double d = new_value.NumericAsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      PutFixed32(&enc, static_cast<uint32_t>(bits));
      PutFixed32(&enc, static_cast<uint32_t>(bits >> 32));
      break;
    }
    case internal::kSubString: {
      if (new_value.type() != ScalarType::kString) {
        return Status::Unsupported("slot holds a string");
      }
      PutVarint32(&enc, static_cast<uint32_t>(new_value.AsString().size()));
      enc += new_value.AsString();
      break;
    }
    case internal::kSubDate: {
      if (new_value.type() != ScalarType::kDate) {
        return Status::Unsupported("slot holds a date");
      }
      PutFixed32(&enc, static_cast<uint32_t>(new_value.AsDate()));
      break;
    }
    case internal::kSubTimestamp: {
      if (new_value.type() != ScalarType::kTimestamp) {
        return Status::Unsupported("slot holds a timestamp");
      }
      uint64_t bits = static_cast<uint64_t>(new_value.AsTimestamp());
      PutFixed32(&enc, static_cast<uint32_t>(bits));
      PutFixed32(&enc, static_cast<uint32_t>(bits >> 32));
      break;
    }
    case internal::kSubBinary: {
      if (new_value.type() != ScalarType::kBinary) {
        return Status::Unsupported("slot holds binary data");
      }
      PutVarint32(&enc, static_cast<uint32_t>(new_value.AsBinary().size()));
      enc += new_value.AsBinary();
      break;
    }
    default:
      return Status::Corruption("unknown subtype");
  }

  // The existing slot size: fixed-width payloads are their width; varlen
  // payloads are varint + payload.
  size_t old_size;
  switch (sub) {
    case internal::kSubDouble:
    case internal::kSubTimestamp:
      old_size = 8;
      break;
    case internal::kSubDate:
      old_size = 4;
      break;
    default: {
      uint32_t len = 0;
      const uint8_t* q = GetVarint32(slot, limit, &len);
      if (q == nullptr) return Status::Corruption("corrupt leaf slot");
      old_size = static_cast<size_t>(q - slot) + len;
      break;
    }
  }
  if (enc.size() > old_size) {
    return Status::Unsupported(
        "new value does not fit the existing leaf slot (" +
        std::to_string(enc.size()) + " > " + std::to_string(old_size) + ")");
  }
  if (slot + old_size > limit) return Status::Corruption("slot out of range");
  std::memcpy(slot, enc.data(), enc.size());
  return Status::Ok();
}

}  // namespace fsdm::oson
