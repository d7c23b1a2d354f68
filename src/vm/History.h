//===- History.h - Call/return histories of client executions --*- C++ -*-===//
//
// A history is the sequence of method invocations and responses observed
// in one concurrent execution; it is the object that the linearizability
// and sequential-consistency checkers reason about.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_VM_HISTORY_H
#define DFENCE_VM_HISTORY_H

#include "ir/Instr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dfence::vm {

using ir::Word;

/// The distinguished EMPTY return value used by the queue benchmarks
/// (returned by take/steal/dequeue on an empty container).
constexpr Word EmptyVal = static_cast<Word>(-1);

/// One completed (or pending) top-level method call.
struct OpRecord {
  std::string Func;        ///< Method name as recorded from the client.
  std::vector<Word> Args;
  Word Ret = 0;
  uint32_t Thread = 0;     ///< Client thread index.
  uint64_t InvokeSeq = 0;  ///< Global timestamps establishing real-time
  uint64_t RespondSeq = 0; ///< order between non-overlapping operations.
  bool Completed = false;

  /// True when this op responded before \p Other was invoked.
  bool precedes(const OpRecord &Other) const {
    return Completed && RespondSeq < Other.InvokeSeq;
  }
};

/// The history of one execution, in invocation order.
struct History {
  std::vector<OpRecord> Ops;

  bool allComplete() const {
    for (const OpRecord &Op : Ops)
      if (!Op.Completed)
        return false;
    return true;
  }

  std::string str() const;
};

} // namespace dfence::vm

#endif // DFENCE_VM_HISTORY_H
