//===- Specs.cpp ----------------------------------------------------------===//

#include "spec/Specs.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace dfence;
using namespace dfence::spec;
using vm::EmptyVal;
using vm::OpRecord;
using vm::Word;

SpecState::~SpecState() = default;

namespace {

/// Hashes Items[From, size()) in order onto \p Seed (every spec's hash()).
uint64_t hashWords(uint64_t Seed, const std::vector<Word> &Items,
                   size_t From = 0) {
  for (size_t I = From, E = Items.size(); I != E; ++I)
    Seed = hashCombine(Seed, Items[I]);
  return Seed;
}

/// Drops the front or back element of the sliding window
/// [Head, size()); an emptied window rewinds so the storage is reused
/// from its start.
void popEnd(std::vector<Word> &Items, size_t &Head, DequeEnd End) {
  if (End == DequeEnd::Tail)
    Items.pop_back();
  else
    ++Head;
  if (Head == Items.size()) {
    Items.clear();
    Head = 0;
  }
}

/// Copies the window [FromHead, From.size()) into \p To as [0, size()),
/// reusing To's capacity.
void copyWindow(std::vector<Word> &To, size_t &ToHead,
                const std::vector<Word> &From, size_t FromHead) {
  To.assign(From.begin() + static_cast<std::ptrdiff_t>(FromHead),
            From.end());
  ToHead = 0;
}

/// Sorted-vector set insert; false when \p V was already present.
bool sortedInsert(std::vector<Word> &S, Word V) {
  auto It = std::lower_bound(S.begin(), S.end(), V);
  if (It != S.end() && *It == V)
    return false;
  S.insert(It, V);
  return true;
}

/// Sorted-vector set erase; false when \p V was absent.
bool sortedErase(std::vector<Word> &S, Word V) {
  auto It = std::lower_bound(S.begin(), S.end(), V);
  if (It == S.end() || *It != V)
    return false;
  S.erase(It);
  return true;
}

bool sortedContains(const std::vector<Word> &S, Word V) {
  return std::binary_search(S.begin(), S.end(), V);
}

} // namespace

//===----------------------------------------------------------------------===//
// WsqSpec
//===----------------------------------------------------------------------===//

bool WsqSpec::apply(const OpRecord &Op) {
  if (Op.Func == "put") {
    if (Op.Args.size() != 1)
      return false;
    Items.push_back(Op.Args[0]);
    return true;
  }
  DequeEnd End;
  if (Op.Func == "take")
    End = TakeEnd;
  else if (Op.Func == "steal")
    End = StealEnd;
  else
    return false; // Unknown operation.
  if (Head == Items.size())
    return Op.Ret == EmptyVal;
  Word Expected = End == DequeEnd::Tail ? Items.back() : Items[Head];
  if (Op.Ret != Expected)
    return false;
  popEnd(Items, Head, End);
  return true;
}

uint64_t WsqSpec::hash() const {
  return hashWords(0x57535121, Items, Head);
}

std::unique_ptr<SpecState> WsqSpec::clone() const {
  return std::make_unique<WsqSpec>(*this);
}

void WsqSpec::assign(const SpecState &Other) {
  const auto &O = static_cast<const WsqSpec &>(Other);
  TakeEnd = O.TakeEnd;
  StealEnd = O.StealEnd;
  copyWindow(Items, Head, O.Items, O.Head);
}

SpecFactory WsqSpec::factory() {
  return factory(DequeEnd::Tail, DequeEnd::Head);
}

SpecFactory WsqSpec::factory(DequeEnd TakeEnd, DequeEnd StealEnd) {
  return [TakeEnd, StealEnd] {
    return std::make_unique<WsqSpec>(TakeEnd, StealEnd);
  };
}

//===----------------------------------------------------------------------===//
// QueueSpec
//===----------------------------------------------------------------------===//

bool QueueSpec::apply(const OpRecord &Op) {
  if (Op.Func == "enqueue") {
    if (Op.Args.size() != 1)
      return false;
    Items.push_back(Op.Args[0]);
    return true;
  }
  if (Op.Func == "dequeue") {
    if (Head == Items.size())
      return Op.Ret == EmptyVal;
    if (Op.Ret != Items[Head])
      return false;
    popEnd(Items, Head, DequeEnd::Head);
    return true;
  }
  return false;
}

uint64_t QueueSpec::hash() const {
  return hashWords(0x51554555, Items, Head);
}

std::unique_ptr<SpecState> QueueSpec::clone() const {
  return std::make_unique<QueueSpec>(*this);
}

void QueueSpec::assign(const SpecState &Other) {
  const auto &O = static_cast<const QueueSpec &>(Other);
  copyWindow(Items, Head, O.Items, O.Head);
}

SpecFactory QueueSpec::factory() {
  return [] { return std::make_unique<QueueSpec>(); };
}

//===----------------------------------------------------------------------===//
// SetSpec
//===----------------------------------------------------------------------===//

bool SetSpec::apply(const OpRecord &Op) {
  if (Op.Args.size() != 1)
    return false;
  Word V = Op.Args[0];
  if (Op.Func == "add") {
    bool Inserted = sortedInsert(Items, V);
    return Op.Ret == static_cast<Word>(Inserted);
  }
  if (Op.Func == "remove") {
    bool Removed = sortedErase(Items, V);
    return Op.Ret == static_cast<Word>(Removed);
  }
  if (Op.Func == "contains")
    return Op.Ret == static_cast<Word>(sortedContains(Items, V));
  return false;
}

uint64_t SetSpec::hash() const {
  return hashWords(0x53455421, Items);
}

std::unique_ptr<SpecState> SetSpec::clone() const {
  return std::make_unique<SetSpec>(*this);
}

void SetSpec::assign(const SpecState &Other) {
  Items = static_cast<const SetSpec &>(Other).Items;
}

SpecFactory SetSpec::factory() {
  return [] { return std::make_unique<SetSpec>(); };
}

//===----------------------------------------------------------------------===//
// StackSpec
//===----------------------------------------------------------------------===//

bool StackSpec::apply(const OpRecord &Op) {
  if (Op.Func == "push") {
    if (Op.Args.size() != 1)
      return false;
    Items.push_back(Op.Args[0]);
    return true;
  }
  if (Op.Func == "pop") {
    if (Items.empty())
      return Op.Ret == EmptyVal;
    if (Op.Ret != Items.back())
      return false;
    Items.pop_back();
    return true;
  }
  return false;
}

uint64_t StackSpec::hash() const {
  return hashWords(0x53544b21, Items);
}

std::unique_ptr<SpecState> StackSpec::clone() const {
  return std::make_unique<StackSpec>(*this);
}

void StackSpec::assign(const SpecState &Other) {
  Items = static_cast<const StackSpec &>(Other).Items;
}

SpecFactory StackSpec::factory() {
  return [] { return std::make_unique<StackSpec>(); };
}

//===----------------------------------------------------------------------===//
// CounterSpec
//===----------------------------------------------------------------------===//

bool CounterSpec::apply(const OpRecord &Op) {
  if (Op.Func == "inc") {
    if (Op.Ret != Value + 1)
      return false;
    ++Value;
    return true;
  }
  if (Op.Func == "get")
    return Op.Ret == Value;
  return false;
}

uint64_t CounterSpec::hash() const {
  return hashCombine(0x434f554e, Value);
}

std::unique_ptr<SpecState> CounterSpec::clone() const {
  return std::make_unique<CounterSpec>(*this);
}

void CounterSpec::assign(const SpecState &Other) {
  Value = static_cast<const CounterSpec &>(Other).Value;
}

SpecFactory CounterSpec::factory() {
  return [] { return std::make_unique<CounterSpec>(); };
}

//===----------------------------------------------------------------------===//
// AllocatorSpec
//===----------------------------------------------------------------------===//

bool AllocatorSpec::apply(const OpRecord &Op) {
  if (Op.Func == "malloc" || Op.Func == "alloc") {
    if (Op.Ret == 0)
      return false; // Our benchmarks never exhaust memory.
    return sortedInsert(Live, Op.Ret); // Must be fresh among live blocks.
  }
  if (Op.Func == "free" || Op.Func == "release")
    return !Op.Args.empty() && sortedErase(Live, Op.Args[0]);
  return false;
}

uint64_t AllocatorSpec::hash() const {
  return hashWords(0x414c4c4f, Live);
}

std::unique_ptr<SpecState> AllocatorSpec::clone() const {
  return std::make_unique<AllocatorSpec>(*this);
}

void AllocatorSpec::assign(const SpecState &Other) {
  Live = static_cast<const AllocatorSpec &>(Other).Live;
}

SpecFactory AllocatorSpec::factory() {
  return [] { return std::make_unique<AllocatorSpec>(); };
}
