#include "jsonpath/evaluator.h"

namespace fsdm::jsonpath {

namespace {

using json::Dom;
using json::NodeKind;

}  // namespace

Status PathEvaluator::Evaluate(const Dom& dom, const Visitor& visit) const {
  bool stop = false;
  return EvalSteps(dom, dom.root(), path_->steps(), 0, visit, &stop);
}

Status PathEvaluator::EvaluateFrom(const Dom& dom, Dom::NodeRef context,
                                   const Visitor& visit) const {
  bool stop = false;
  return EvalSteps(dom, context, path_->steps(), 0, visit, &stop);
}

Result<std::optional<Value>> PathEvaluator::FirstScalarGeneral(
    const Dom& dom, Dom::NodeRef context) const {
  std::optional<Value> out;
  Status st = EvaluateFrom(dom, context, [&](Dom::NodeRef node, bool* stop) {
    *stop = true;
    if (dom.GetNodeType(node) != NodeKind::kScalar) return Status::Ok();
    Value v;
    FSDM_RETURN_NOT_OK(dom.GetScalarValue(node, &v));
    out = std::move(v);
    return Status::Ok();
  });
  FSDM_RETURN_NOT_OK(st);
  return out;
}

Status PathEvaluator::EvalSteps(const Dom& dom, Dom::NodeRef node,
                                const std::vector<Step>& steps, size_t idx,
                                const Visitor& visit, bool* stop) const {
  if (*stop) return Status::Ok();
  if (idx == steps.size()) {
    return visit(node, stop);
  }
  const Step& step = steps[idx];
  NodeKind kind = dom.GetNodeType(node);

  switch (step.kind) {
    case StepKind::kMember: {
      // Lax mode: unwrap one array level.
      if (kind == NodeKind::kArray) {
        size_t n = dom.GetArrayLength(node);
        for (size_t i = 0; i < n && !*stop; ++i) {
          Dom::NodeRef el = dom.GetArrayElement(node, i);
          if (dom.GetNodeType(el) != NodeKind::kObject) continue;
          Dom::NodeRef child = dom.GetFieldValueHashed(
              el, step.name, step.name_hash, &step.cached_field_id);
          if (child == Dom::kInvalidNode) continue;
          FSDM_RETURN_NOT_OK(
              EvalSteps(dom, child, steps, idx + 1, visit, stop));
        }
        return Status::Ok();
      }
      if (kind != NodeKind::kObject) return Status::Ok();
      Dom::NodeRef child = dom.GetFieldValueHashed(
          node, step.name, step.name_hash, &step.cached_field_id);
      if (child == Dom::kInvalidNode) return Status::Ok();
      return EvalSteps(dom, child, steps, idx + 1, visit, stop);
    }

    case StepKind::kMemberWildcard: {
      if (kind == NodeKind::kArray) {
        size_t n = dom.GetArrayLength(node);
        for (size_t i = 0; i < n && !*stop; ++i) {
          Dom::NodeRef el = dom.GetArrayElement(node, i);
          if (dom.GetNodeType(el) != NodeKind::kObject) continue;
          size_t fields = dom.GetFieldCount(el);
          for (size_t f = 0; f < fields && !*stop; ++f) {
            std::string_view name;
            Dom::NodeRef child;
            dom.GetFieldAt(el, f, &name, &child);
            FSDM_RETURN_NOT_OK(
                EvalSteps(dom, child, steps, idx + 1, visit, stop));
          }
        }
        return Status::Ok();
      }
      if (kind != NodeKind::kObject) return Status::Ok();
      size_t fields = dom.GetFieldCount(node);
      for (size_t f = 0; f < fields && !*stop; ++f) {
        std::string_view name;
        Dom::NodeRef child;
        dom.GetFieldAt(node, f, &name, &child);
        FSDM_RETURN_NOT_OK(EvalSteps(dom, child, steps, idx + 1, visit, stop));
      }
      return Status::Ok();
    }

    case StepKind::kDescendant: {
      // DFS over the whole subtree; every field with the name matches.
      struct Walker {
        const Dom& dom;
        const PathEvaluator* self;
        const std::vector<Step>& steps;
        size_t idx;
        const Visitor& visit;
        bool* stop;
        const Step& step;

        Status Walk(Dom::NodeRef n) {
          if (*stop) return Status::Ok();
          NodeKind k = dom.GetNodeType(n);
          if (k == NodeKind::kObject) {
            Dom::NodeRef hit = dom.GetFieldValueHashed(
                n, step.name, step.name_hash, &step.cached_field_id);
            if (hit != Dom::kInvalidNode) {
              FSDM_RETURN_NOT_OK(
                  self->EvalSteps(dom, hit, steps, idx + 1, visit, stop));
            }
            size_t fields = dom.GetFieldCount(n);
            for (size_t f = 0; f < fields && !*stop; ++f) {
              std::string_view name;
              Dom::NodeRef child;
              dom.GetFieldAt(n, f, &name, &child);
              FSDM_RETURN_NOT_OK(Walk(child));
            }
          } else if (k == NodeKind::kArray) {
            size_t n_el = dom.GetArrayLength(n);
            for (size_t i = 0; i < n_el && !*stop; ++i) {
              FSDM_RETURN_NOT_OK(Walk(dom.GetArrayElement(n, i)));
            }
          }
          return Status::Ok();
        }
      };
      Walker w{dom, this, steps, idx, visit, stop, step};
      return w.Walk(node);
    }

    case StepKind::kArraySubscript: {
      // Lax mode: a non-array is a singleton array.
      if (kind != NodeKind::kArray) {
        for (const ArrayRange& r : step.ranges) {
          if (r.lo == 0) {
            return EvalSteps(dom, node, steps, idx + 1, visit, stop);
          }
        }
        return Status::Ok();
      }
      size_t n = dom.GetArrayLength(node);
      for (const ArrayRange& r : step.ranges) {
        for (int64_t i = r.lo; i <= r.hi && !*stop; ++i) {
          if (i < 0 || static_cast<size_t>(i) >= n) break;
          FSDM_RETURN_NOT_OK(EvalSteps(dom, dom.GetArrayElement(node, i),
                                       steps, idx + 1, visit, stop));
        }
      }
      return Status::Ok();
    }

    case StepKind::kArrayWildcard: {
      if (kind != NodeKind::kArray) {
        return EvalSteps(dom, node, steps, idx + 1, visit, stop);
      }
      size_t n = dom.GetArrayLength(node);
      for (size_t i = 0; i < n && !*stop; ++i) {
        FSDM_RETURN_NOT_OK(EvalSteps(dom, dom.GetArrayElement(node, i), steps,
                                     idx + 1, visit, stop));
      }
      return Status::Ok();
    }

    case StepKind::kFilter: {
      // Lax mode: filter an array by filtering its elements.
      if (kind == NodeKind::kArray) {
        size_t n = dom.GetArrayLength(node);
        for (size_t i = 0; i < n && !*stop; ++i) {
          Dom::NodeRef el = dom.GetArrayElement(node, i);
          if (EvalFilter(dom, el, *step.filter)) {
            FSDM_RETURN_NOT_OK(
                EvalSteps(dom, el, steps, idx + 1, visit, stop));
          }
        }
        return Status::Ok();
      }
      if (EvalFilter(dom, node, *step.filter)) {
        return EvalSteps(dom, node, steps, idx + 1, visit, stop);
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled step kind");
}

bool PathEvaluator::AnyRelMatch(
    const Dom& dom, Dom::NodeRef node, const std::vector<Step>& rel,
    const std::function<bool(Dom::NodeRef)>& pred) const {
  bool found = false;
  Visitor visitor = [&](Dom::NodeRef n, bool* stop) {
    if (pred == nullptr || pred(n)) {
      found = true;
      *stop = true;
    }
    return Status::Ok();
  };
  bool stop = false;
  Status st = EvalSteps(dom, node, rel, 0, visitor, &stop);
  return st.ok() && found;
}

bool PathEvaluator::EvalFilter(const Dom& dom, Dom::NodeRef node,
                               const FilterExpr& expr) const {
  switch (expr.kind) {
    case FilterExpr::Kind::kAnd:
      for (const auto& child : expr.children) {
        if (!EvalFilter(dom, node, *child)) return false;
      }
      return true;
    case FilterExpr::Kind::kOr:
      for (const auto& child : expr.children) {
        if (EvalFilter(dom, node, *child)) return true;
      }
      return false;
    case FilterExpr::Kind::kNot:
      return !EvalFilter(dom, node, *expr.children[0]);
    case FilterExpr::Kind::kExists:
      return AnyRelMatch(dom, node, expr.rel_path, nullptr);
    case FilterExpr::Kind::kCompare: {
      // "Exists some" semantics: true if any selected scalar satisfies the
      // comparison; type-mismatched comparisons are false, not errors.
      return AnyRelMatch(dom, node, expr.rel_path, [&](Dom::NodeRef n) {
        if (dom.GetNodeType(n) != NodeKind::kScalar) return false;
        Value v;
        if (!dom.GetScalarValue(n, &v).ok()) return false;
        if (v.is_null() || expr.literal.is_null()) {
          // Only == null / != null are meaningful.
          bool equal = v.is_null() && expr.literal.is_null();
          if (expr.op == FilterExpr::CompareOp::kEq) return equal;
          if (expr.op == FilterExpr::CompareOp::kNe) return !equal;
          return false;
        }
        Result<int> cmp = v.CompareTo(expr.literal);
        if (!cmp.ok()) return false;
        switch (expr.op) {
          case FilterExpr::CompareOp::kEq:
            return cmp.value() == 0;
          case FilterExpr::CompareOp::kNe:
            return cmp.value() != 0;
          case FilterExpr::CompareOp::kLt:
            return cmp.value() < 0;
          case FilterExpr::CompareOp::kLe:
            return cmp.value() <= 0;
          case FilterExpr::CompareOp::kGt:
            return cmp.value() > 0;
          case FilterExpr::CompareOp::kGe:
            return cmp.value() >= 0;
        }
        return false;
      });
    }
  }
  return false;
}

Result<bool> PathEvaluator::ExistsGeneral(const Dom& dom) const {
  bool found = false;
  Status st = Evaluate(dom, [&](Dom::NodeRef, bool* stop) {
    found = true;
    *stop = true;
    return Status::Ok();
  });
  FSDM_RETURN_NOT_OK(st);
  return found;
}

Result<std::vector<Dom::NodeRef>> PathEvaluator::Select(const Dom& dom) const {
  std::vector<Dom::NodeRef> nodes;
  Status st = Evaluate(dom, [&](Dom::NodeRef node, bool*) {
    nodes.push_back(node);
    return Status::Ok();
  });
  FSDM_RETURN_NOT_OK(st);
  return nodes;
}

}  // namespace fsdm::jsonpath
