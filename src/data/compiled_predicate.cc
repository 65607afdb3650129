#include "src/data/compiled_predicate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>
#include <utility>

#include "src/common/check.h"
#include "src/common/target_clones.h"

namespace osdp {

// The compiled program. CompileNode builds the same tree shape as
// Predicate::Node, with column indices resolved, each comparison specialized
// to the column's static type, and literals pre-converted (numerics widened
// to double — matching the reference evaluator's comparison semantics —
// strings interned in place). The canonical encoding is taken from that
// tree; Lower() then rewrites it into the program EvalBlock runs.
struct CompiledPredicate::Op {
  enum class Kind {
    kConstTrue,
    kConstFalse,
    kCmpNum,  // numeric column <op> numeric literal; only != once lowered
    kCmpStr,  // string column <op> string literal
    kInNum,   // numeric column ∈ {numeric literals}
    kInStr,   // string column ∈ {string literals}
    kRange,   // lowered only: numeric column within inclusive bounds
    kAnd,
    kOr,
    kNot,
  };

  Kind kind;
  PredicateOp cmp = PredicateOp::kEq;  // for kCmpNum / kCmpStr
  size_t col = 0;
  ValueType col_type = ValueType::kInt64;
  double num_lit = 0.0;
  // kRange bounds, lo <= hi: int_* on an int64 column, num_* (never NaN) on a
  // double column.
  int64_t int_lo = 0;
  int64_t int_hi = 0;
  double num_lo = 0.0;
  double num_hi = 0.0;
  // Scratch blocks EvalBlock needs for this subtree (lowered program only).
  size_t scratch_blocks = 0;
  std::string str_lit;
  std::vector<double> num_set;
  std::vector<std::string> str_set;
  std::shared_ptr<const Op> left;
  std::shared_ptr<const Op> right;
};

namespace {

using Op = CompiledPredicate::Op;

bool IsComparison(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq:
    case PredicateOp::kNe:
    case PredicateOp::kLt:
    case PredicateOp::kLe:
    case PredicateOp::kGt:
    case PredicateOp::kGe:
      return true;
    default:
      return false;
  }
}

Result<std::shared_ptr<const Op>> CompileNode(const Predicate::Node& n,
                                              const Schema& schema) {
  auto op = std::make_shared<Op>();
  switch (n.op) {
    case PredicateOp::kTrue:
      op->kind = Op::Kind::kConstTrue;
      return std::shared_ptr<const Op>(op);
    case PredicateOp::kFalse:
      op->kind = Op::Kind::kConstFalse;
      return std::shared_ptr<const Op>(op);
    case PredicateOp::kAnd:
    case PredicateOp::kOr: {
      op->kind =
          n.op == PredicateOp::kAnd ? Op::Kind::kAnd : Op::Kind::kOr;
      OSDP_ASSIGN_OR_RETURN(op->left, CompileNode(*n.left, schema));
      OSDP_ASSIGN_OR_RETURN(op->right, CompileNode(*n.right, schema));
      return std::shared_ptr<const Op>(op);
    }
    case PredicateOp::kNot: {
      op->kind = Op::Kind::kNot;
      OSDP_ASSIGN_OR_RETURN(op->left, CompileNode(*n.left, schema));
      return std::shared_ptr<const Op>(op);
    }
    default:
      break;
  }

  // Leaf: resolve the column once and type-check every literal now, so the
  // scan loops carry no per-row checks.
  OSDP_ASSIGN_OR_RETURN(op->col, schema.FieldIndex(n.column));
  op->col_type = schema.field(op->col).type;
  const bool str_col = op->col_type == ValueType::kString;
  for (const Value& lit : n.literals) {
    if (lit.is_string() != str_col) {
      return Status::InvalidArgument(
          "predicate compares string against numeric in column '" + n.column +
          "'");
    }
  }

  if (n.op == PredicateOp::kIn) {
    if (n.literals.empty()) {
      op->kind = Op::Kind::kConstFalse;  // x ∈ ∅ is vacuously false
      return std::shared_ptr<const Op>(op);
    }
    op->kind = str_col ? Op::Kind::kInStr : Op::Kind::kInNum;
    for (const Value& lit : n.literals) {
      if (str_col) {
        op->str_set.push_back(lit.AsString());
      } else {
        op->num_set.push_back(lit.AsNumeric());
      }
    }
    return std::shared_ptr<const Op>(op);
  }

  OSDP_CHECK(IsComparison(n.op) && n.literals.size() == 1);
  op->cmp = n.op;
  op->kind = str_col ? Op::Kind::kCmpStr : Op::Kind::kCmpNum;
  if (str_col) {
    op->str_lit = n.literals[0].AsString();
  } else {
    op->num_lit = n.literals[0].AsNumeric();
  }
  return std::shared_ptr<const Op>(op);
}

// ---------------------------------------------------------------- lowering ---
//
// Every numeric comparison except != becomes a kRange leaf: the rows whose
// cell x satisfies lo <= x <= hi. On a double column the bounds are doubles:
// x > c is x >= nextafter(c, +inf) and x < c is x <= nextafter(c, -inf),
// exact for every double x, and a NaN cell fails both bounds just as it fails
// every comparison. On an int64 column the bounds are int64. The reference
// compares double(x) op c, and int64 -> double is monotone, so
// {x : double(x) op c} is an interval of int64; it is found once here by
// binary search, with no double -> int64 cast, and the scan tests
// uint64(x - lo) <= uint64(hi - lo) with no per-row conversion. A NaN
// literal, or an empty interval, lowers to kConstFalse. An AND of two kRange
// leaves on one column folds into one leaf over the intersection, so a
// half-open range reads its column once.

std::shared_ptr<const Op> ConstOp(bool value) {
  auto op = std::make_shared<Op>();
  op->kind = value ? Op::Kind::kConstTrue : Op::Kind::kConstFalse;
  return op;
}

// Smallest x with meets(x), for `meets` monotone over int64 (false, then
// true) and meets(INT64_MAX) true.
template <typename Meets>
int64_t FirstInt64Where(const Meets& meets) {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  while (lo < hi) {
    const uint64_t half =
        (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 2;
    const int64_t mid = lo + static_cast<int64_t>(half);
    if (meets(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Lowers `x cmp lit` for cmp in {==, <, <=, >, >=}.
std::shared_ptr<const Op> LowerNumCmp(const Op& leaf) {
  const PredicateOp cmp = leaf.cmp;
  const double lit = leaf.num_lit;
  if (std::isnan(lit)) return ConstOp(false);
  const bool has_lo = cmp == PredicateOp::kEq || cmp == PredicateOp::kGt ||
                      cmp == PredicateOp::kGe;
  const bool has_hi = cmp == PredicateOp::kEq || cmp == PredicateOp::kLt ||
                      cmp == PredicateOp::kLe;
  auto range = std::make_shared<Op>();
  range->kind = Op::Kind::kRange;
  range->col = leaf.col;
  range->col_type = leaf.col_type;
  if (leaf.col_type == ValueType::kInt64) {
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    // Monotone in x: meets_lo false then true, meets_hi true then false.
    auto meets_lo = [&](int64_t x) {
      const double d = static_cast<double>(x);
      return cmp == PredicateOp::kGt ? d > lit : d >= lit;
    };
    auto meets_hi = [&](int64_t x) {
      const double d = static_cast<double>(x);
      return cmp == PredicateOp::kLt ? d < lit : d <= lit;
    };
    range->int_lo = kMin;
    range->int_hi = kMax;
    if (has_lo) {
      if (!meets_lo(kMax)) return ConstOp(false);
      range->int_lo = FirstInt64Where(meets_lo);
    }
    if (has_hi) {
      if (!meets_hi(kMin)) return ConstOp(false);
      if (!meets_hi(kMax)) {
        range->int_hi =
            FirstInt64Where([&](int64_t x) { return !meets_hi(x); }) - 1;
      }
    }
    if (range->int_lo > range->int_hi) return ConstOp(false);
  } else {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    range->num_lo = has_lo ? lit : -kInf;
    range->num_hi = has_hi ? lit : kInf;
    if (cmp == PredicateOp::kGt) {
      if (lit == kInf) return ConstOp(false);
      range->num_lo = std::nextafter(lit, kInf);
    }
    if (cmp == PredicateOp::kLt) {
      if (lit == -kInf) return ConstOp(false);
      range->num_hi = std::nextafter(lit, -kInf);
    }
  }
  return range;
}

// And(a, b) of two kRange leaves on one column: both legs read the same
// cell, so x ∈ A ∧ x ∈ B ⇔ x ∈ A ∩ B.
std::shared_ptr<const Op> FoldRanges(const Op& a, const Op& b) {
  auto range = std::make_shared<Op>(a);
  if (a.col_type == ValueType::kInt64) {
    range->int_lo = std::max(a.int_lo, b.int_lo);
    range->int_hi = std::min(a.int_hi, b.int_hi);
    if (range->int_lo > range->int_hi) return ConstOp(false);
  } else {
    range->num_lo = std::max(a.num_lo, b.num_lo);
    range->num_hi = std::min(a.num_hi, b.num_hi);
    if (range->num_lo > range->num_hi) return ConstOp(false);
  }
  return range;
}

// Rewrites the canonical program for evaluation (see above) and sets each
// node's scratch_blocks.
std::shared_ptr<const Op> Lower(const std::shared_ptr<const Op>& op) {
  switch (op->kind) {
    case Op::Kind::kCmpNum:
      return op->cmp == PredicateOp::kNe ? op : LowerNumCmp(*op);
    case Op::Kind::kAnd:
    case Op::Kind::kOr:
    case Op::Kind::kNot: {
      auto out = std::make_shared<Op>(*op);
      out->left = Lower(op->left);
      if (op->kind == Op::Kind::kNot) {
        out->scratch_blocks = out->left->scratch_blocks;
        return out;
      }
      out->right = Lower(op->right);
      const Op& l = *out->left;
      const Op& r = *out->right;
      if (op->kind == Op::Kind::kAnd && l.kind == Op::Kind::kRange &&
          r.kind == Op::Kind::kRange && l.col == r.col) {
        return FoldRanges(l, r);
      }
      // The left leg fills the output words, the right leg one scratch
      // block; each leg's own scratch lies past what its parent holds.
      out->scratch_blocks = std::max(l.scratch_blocks, 1 + r.scratch_blocks);
      return out;
    }
    default:
      return op;
  }
}

// -------------------------------------------------------------- evaluation ---
//
// EvalRangeInto evaluates the whole tree one block at a time: a block is the
// part of one column chunk inside the range, at most kChunkRows rows (64
// mask words). Leaves read the chunk's contiguous cells and pack their
// results straight into the block's words; AND/OR legs meet in a stack
// scratch block, so the tree's intermediate masks stay in L1 and no column
// is streamed through memory more than once per leaf.

constexpr size_t kBlockWords = kChunkRows / 64;

// Packs fn(i) for i in [0, n) into words[0, ceil(n / 64)), tail bits zero.
// Each full word goes through a 64-byte buffer that an 8-byte multiply packs
// into bits, which the compiler vectorizes; fn must be pure.
template <typename Fn>
inline void FillMask(size_t n, uint64_t* words, const Fn& fn) {
  const size_t full_words = n >> 6;
  for (size_t wi = 0; wi < full_words; ++wi) {
    const size_t base = wi << 6;
    uint8_t hits[64];
    for (size_t b = 0; b < 64; ++b) hits[b] = fn(base + b) ? 1 : 0;
    uint64_t w = 0;
    for (size_t k = 0; k < 8; ++k) {
      uint64_t bytes;
      std::memcpy(&bytes, hits + 8 * k, sizeof(bytes));
      // Gathers the low bit of each byte into the top byte, byte 0 lowest.
      w |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * k);
    }
    words[wi] = w;
  }
  if (n & 63) {
    uint64_t w = 0;
    for (size_t i = full_words << 6; i < n; ++i) {
      w |= static_cast<uint64_t>(fn(i) ? 1 : 0) << (i & 63);
    }
    words[full_words] = w;
  }
}

// The two range kernels, compiled with and without AVX2.
OSDP_TARGET_CLONES("avx2", "default")
void PackInt64Range(const int64_t* x, size_t n, int64_t lo, int64_t hi,
                    uint64_t* words) {
  const uint64_t ulo = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - ulo;
  FillMask(n, words, [&](size_t i) {
    return static_cast<uint64_t>(x[i]) - ulo <= span;
  });
}

OSDP_TARGET_CLONES("avx2", "default")
void PackDoubleRange(const double* x, size_t n, double lo, double hi,
                     uint64_t* words) {
  FillMask(n, words, [&](size_t i) { return (lo <= x[i]) & (x[i] <= hi); });
}

// Calls fn(cells) with the block's cells of the numeric column op.col.
template <typename Fn>
void WithNumericCells(const Op& op, const Table& table, size_t begin,
                      const Fn& fn) {
  if (op.col_type == ValueType::kInt64) {
    fn(&table.Int64Column(op.col)[begin]);
  } else {
    fn(&table.DoubleColumn(op.col)[begin]);
  }
}

// Evaluates the lowered `op` for rows [begin, begin + n) of one chunk
// (`begin` a multiple of 64, n <= kChunkRows) into words[0, ceil(n / 64)),
// tail bits past n zero. `scratch` holds op.scratch_blocks blocks of
// kBlockWords words.
void EvalBlock(const Op& op, const Table& table, size_t begin, size_t n,
               uint64_t* words, uint64_t* scratch) {
  const size_t num_words = (n + 63) >> 6;
  const size_t tail = n & 63;
  switch (op.kind) {
    case Op::Kind::kConstTrue:
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] = ~uint64_t{0};
      if (tail != 0) words[num_words - 1] = (uint64_t{1} << tail) - 1;
      return;
    case Op::Kind::kConstFalse:
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] = 0;
      return;
    case Op::Kind::kAnd:
      EvalBlock(*op.left, table, begin, n, words, scratch);
      // A block the left leg rules out entirely skips the right leg.
      if (std::all_of(words, words + num_words,
                      [](uint64_t w) { return w == 0; })) {
        return;
      }
      EvalBlock(*op.right, table, begin, n, scratch, scratch + kBlockWords);
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] &= scratch[wi];
      return;
    case Op::Kind::kOr:
      EvalBlock(*op.left, table, begin, n, words, scratch);
      EvalBlock(*op.right, table, begin, n, scratch, scratch + kBlockWords);
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] |= scratch[wi];
      return;
    case Op::Kind::kNot:
      EvalBlock(*op.left, table, begin, n, words, scratch);
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] = ~words[wi];
      if (tail != 0) words[num_words - 1] &= (uint64_t{1} << tail) - 1;
      return;
    case Op::Kind::kRange:
      if (op.col_type == ValueType::kInt64) {
        PackInt64Range(&table.Int64Column(op.col)[begin], n, op.int_lo,
                       op.int_hi, words);
      } else {
        PackDoubleRange(&table.DoubleColumn(op.col)[begin], n, op.num_lo,
                        op.num_hi, words);
      }
      return;
    case Op::Kind::kCmpNum: {
      // Only != is left after lowering; it compares as double, like the
      // reference (a NaN cell differs from every literal).
      OSDP_DCHECK(op.cmp == PredicateOp::kNe);
      WithNumericCells(op, table, begin, [&](const auto* x) {
        FillMask(n, words, [&](size_t i) {
          return static_cast<double>(x[i]) != op.num_lit;
        });
      });
      return;
    }
    case Op::Kind::kCmpStr: {
      const std::string* x = &table.StringColumn(op.col)[begin];
      const std::string_view lit = op.str_lit;
      auto fill = [&](auto cmp) {
        FillMask(n, words,
                 [&](size_t i) { return cmp(std::string_view(x[i]), lit); });
      };
      switch (op.cmp) {
        case PredicateOp::kEq: fill(std::equal_to<>()); return;
        case PredicateOp::kNe: fill(std::not_equal_to<>()); return;
        case PredicateOp::kLt: fill(std::less<>()); return;
        case PredicateOp::kLe: fill(std::less_equal<>()); return;
        case PredicateOp::kGt: fill(std::greater<>()); return;
        case PredicateOp::kGe: fill(std::greater_equal<>()); return;
        default: break;
      }
      break;
    }
    case Op::Kind::kInNum:
      // IN lists are tiny in practice (policy categories); a linear scan over
      // the interned literal vector beats a hash/sort setup per evaluation.
      WithNumericCells(op, table, begin, [&](const auto* x) {
        FillMask(n, words, [&](size_t i) {
          const double v = static_cast<double>(x[i]);
          return std::find(op.num_set.begin(), op.num_set.end(), v) !=
                 op.num_set.end();
        });
      });
      return;
    case Op::Kind::kInStr: {
      const std::string* x = &table.StringColumn(op.col)[begin];
      const std::vector<std::string>& set = op.str_set;
      FillMask(n, words, [&](size_t i) {
        return std::find(set.begin(), set.end(), std::string_view(x[i])) !=
               set.end();
      });
      return;
    }
  }
  OSDP_CHECK_MSG(false, "corrupt compiled predicate");
}

// --------------------------------------------------------- fingerprinting ---
//
// The canonical encoding is an injective serialization of the compiled
// program after canonicalization: AND/OR chains are flattened and their legs
// sorted by encoding, IN lists are sorted and deduplicated. Every variable-
// length field is length-prefixed, every tag is distinct, and literals are
// encoded by exact bit pattern — so byte equality of two encodings is deep
// structural equality of the canonicalized programs, and near-miss pairs
// (different column id, comparison op, or typed constant) can never encode
// identically. tests/compiled_predicate_test.cc enumerates those pairs.

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendDoubleBits(std::string* out, double d) {
  // Bit pattern, not value: injective (distinguishes 0.0 from -0.0 and every
  // NaN payload), at the harmless cost of treating such pairs as distinct
  // cache keys.
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  AppendU64(out, bits);
}

void AppendLengthPrefixed(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

char CmpTag(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq: return '=';
    case PredicateOp::kNe: return '!';
    case PredicateOp::kLt: return '<';
    case PredicateOp::kLe: return 'l';
    case PredicateOp::kGt: return '>';
    case PredicateOp::kGe: return 'g';
    default: OSDP_CHECK_MSG(false, "bad comparison op"); return '?';
  }
}

char TypeTag(ValueType t) {
  switch (t) {
    case ValueType::kInt64: return 'I';
    case ValueType::kDouble: return 'D';
    case ValueType::kString: return 'S';
  }
  return '?';
}

// Collects the legs of a maximal same-kind AND/OR chain: And(a, And(b, c))
// and And(And(c, b), a) flatten to the same three legs.
void FlattenChain(const Op& op, Op::Kind kind, std::vector<const Op*>* legs) {
  if (op.kind == kind) {
    FlattenChain(*op.left, kind, legs);
    FlattenChain(*op.right, kind, legs);
  } else {
    legs->push_back(&op);
  }
}

std::string CanonicalEncode(const Op& op) {
  std::string out;
  switch (op.kind) {
    case Op::Kind::kConstTrue:
      return "T";
    case Op::Kind::kConstFalse:
      return "F";
    case Op::Kind::kCmpNum:
      out += 'n';
      out += CmpTag(op.cmp);
      AppendU64(&out, op.col);
      out += TypeTag(op.col_type);
      AppendDoubleBits(&out, op.num_lit);
      return out;
    case Op::Kind::kCmpStr:
      out += 's';
      out += CmpTag(op.cmp);
      AppendU64(&out, op.col);
      AppendLengthPrefixed(&out, op.str_lit);
      return out;
    case Op::Kind::kInNum: {
      // Membership is order- and multiplicity-insensitive, so the canonical
      // set is sorted by bit pattern and deduplicated (evaluation keeps the
      // original list; the mask is identical either way).
      std::vector<uint64_t> bits;
      bits.reserve(op.num_set.size());
      for (double d : op.num_set) {
        uint64_t b;
        std::memcpy(&b, &d, sizeof(b));
        bits.push_back(b);
      }
      std::sort(bits.begin(), bits.end());
      bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
      out += 'i';
      AppendU64(&out, op.col);
      out += TypeTag(op.col_type);
      AppendU64(&out, bits.size());
      for (uint64_t b : bits) AppendU64(&out, b);
      return out;
    }
    case Op::Kind::kInStr: {
      std::vector<std::string> sorted = op.str_set;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      out += 'j';
      AppendU64(&out, op.col);
      AppendU64(&out, sorted.size());
      for (const std::string& s : sorted) AppendLengthPrefixed(&out, s);
      return out;
    }
    case Op::Kind::kNot:
      out += '~';
      AppendLengthPrefixed(&out, CanonicalEncode(*op.left));
      return out;
    case Op::Kind::kAnd:
    case Op::Kind::kOr: {
      // Word-wise AND/OR is commutative and associative, so the mask of a
      // chain does not depend on leg order — canonicalize by flattening the
      // chain and sorting the encoded legs.
      std::vector<const Op*> legs;
      FlattenChain(op, op.kind, &legs);
      std::vector<std::string> encoded;
      encoded.reserve(legs.size());
      for (const Op* leg : legs) encoded.push_back(CanonicalEncode(*leg));
      std::sort(encoded.begin(), encoded.end());
      out += op.kind == Op::Kind::kAnd ? '&' : '|';
      AppendU64(&out, encoded.size());
      for (const std::string& leg : encoded) AppendLengthPrefixed(&out, leg);
      return out;
    }
    case Op::Kind::kRange:
      break;  // lowered programs are never encoded
  }
  OSDP_CHECK_MSG(false, "corrupt compiled predicate");
  return out;
}

// FNV-1a over the canonical bytes, finished with a SplitMix64 avalanche so
// near-identical encodings (one literal bit apart) spread over all 64 bits.
uint64_t HashCanonical(const std::string& canonical) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : canonical) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

Result<CompiledPredicate> CompiledPredicate::Compile(const Predicate& pred,
                                                     const Schema& schema) {
  OSDP_CHECK(pred.root() != nullptr);
  OSDP_ASSIGN_OR_RETURN(std::shared_ptr<const Op> root,
                        CompileNode(*pred.root(), schema));
  // Cache keys come from the program as written, not as lowered.
  auto canonical = std::make_shared<const std::string>(CanonicalEncode(*root));
  const uint64_t fingerprint = HashCanonical(*canonical);
  return CompiledPredicate(schema, Lower(root), std::move(canonical),
                           fingerprint);
}

RowMask CompiledPredicate::EvalMask(const Table& table) const {
  RowMask out(table.num_rows());
  EvalInto(table, &out);
  return out;
}

void CompiledPredicate::EvalInto(const Table& table, RowMask* out) const {
  EvalRangeInto(table, 0, table.num_rows(), out);
}

void CompiledPredicate::EvalRangeInto(const Table& table, size_t row_begin,
                                      size_t row_end, RowMask* out) const {
  OSDP_CHECK_MSG(table.schema() == schema_,
                 "table schema differs from the compiled schema");
  OSDP_CHECK(out->size() == table.num_rows());
  OSDP_CHECK_MSG((row_begin & 63) == 0, "range start must be word-aligned");
  OSDP_CHECK_MSG(row_end == table.num_rows() || (row_end & 63) == 0,
                 "range end must be word-aligned or the table end");
  OSDP_CHECK(row_begin <= row_end && row_end <= table.num_rows());
  // Trees up to kStackBlocks deep in right legs (every real one) use stack
  // scratch; deeper ones get it once per call from the heap.
  constexpr size_t kStackBlocks = 8;
  uint64_t stack_scratch[kStackBlocks * kBlockWords];
  std::vector<uint64_t> heap_scratch;
  uint64_t* scratch = stack_scratch;
  if (root_->scratch_blocks > kStackBlocks) {
    heap_scratch.resize(root_->scratch_blocks * kBlockWords);
    scratch = heap_scratch.data();
  }
  uint64_t* words = out->mutable_words();
  for (size_t begin = row_begin; begin < row_end;) {
    const size_t end = std::min(row_end, (begin | kChunkRowMask) + 1);
    EvalBlock(*root_, table, begin, end - begin, words + (begin >> 6),
              scratch);
    begin = end;
  }
}

}  // namespace osdp
