(** The HILTI instruction set (§3.2, Table 1).

    Each entry declares a mnemonic, its group, its operand arity range, and
    whether it produces a result.  The paper counts "about 200 instructions
    (counting instructions overloaded by their argument types only once)";
    this table is the authoritative inventory — the validator checks
    programs against it, the lowering pass consumes exactly this set, and a
    test asserts the per-group coverage of Table 1. *)

type target_spec = No_target | Needs_target | Optional_target

type entry = {
  mnemonic : string;
  group : string;
  min_ops : int;
  max_ops : int;
  target : target_spec;
  doc : string;
}

let e ?(tgt = No_target) mnemonic min_ops max_ops doc =
  { mnemonic; group = Instr.group_of_mnemonic mnemonic; min_ops; max_ops; target = tgt; doc }

let r mnemonic min_ops max_ops doc = e ~tgt:Needs_target mnemonic min_ops max_ops doc

let entries : entry list =
  [
    (* ---- Flow control (no joint prefix, Table 1) ------------------------- *)
    e "jump" 1 1 "unconditional branch to a block label";
    e "if.else" 3 3 "branch to op2 if op1 is true, else to op3";
    e ~tgt:Optional_target "call" 1 2 "call a function with a tuple of arguments";
    e "return.void" 0 0 "return from a void function";
    e "return.result" 1 1 "return a value from a function";
    e "yield" 0 0 "suspend the current fiber until resumed";
    e "throw" 1 1 "raise an exception value";
    e "try.push" 2 2 "install handler block op1 with exception target local op2";
    e "try.pop" 0 0 "uninstall the innermost handler";
    r "select" 3 3 "op1 ? op2 : op3";
    r "equal" 2 2 "generic equality on any comparable type";
    r "assign" 1 1 "copy a value into the target";
    r "new" 1 3 "allocate a heap instance of the given type";
    e "nop" 0 0 "no operation";
    e "switch" 3 99 "multiway branch: value, default label, (const, label)...";

    (* ---- Booleans -------------------------------------------------------- *)
    r "bool.and" 2 2 "logical and";
    r "bool.or" 2 2 "logical or";
    r "bool.not" 1 1 "logical negation";

    (* ---- Integers (int<N>) ----------------------------------------------- *)
    r "int.add" 2 2 "wrapping addition";
    r "int.sub" 2 2 "wrapping subtraction";
    r "int.mul" 2 2 "wrapping multiplication";
    r "int.div" 2 2 "division; throws Hilti::DivisionByZero";
    r "int.mod" 2 2 "remainder; throws Hilti::DivisionByZero";
    r "int.eq" 2 2 "equality";
    r "int.lt" 2 2 "signed less-than";
    r "int.gt" 2 2 "signed greater-than";
    r "int.leq" 2 2 "signed less-or-equal";
    r "int.geq" 2 2 "signed greater-or-equal";
    r "int.shl" 2 2 "shift left";
    r "int.shr" 2 2 "logical shift right";
    r "int.and" 2 2 "bitwise and";
    r "int.or" 2 2 "bitwise or";
    r "int.xor" 2 2 "bitwise xor";
    r "int.neg" 1 1 "negation";
    r "int.abs" 1 1 "absolute value";
    r "int.min" 2 2 "minimum";
    r "int.max" 2 2 "maximum";
    r "int.to_double" 1 1 "conversion to double";
    r "int.to_time" 1 1 "seconds to absolute time";
    r "int.to_interval" 1 1 "seconds to interval";
    r "int.to_string" 1 2 "decimal (or given base) rendering";

    (* ---- Doubles ---------------------------------------------------------- *)
    r "double.add" 2 2 "addition";
    r "double.sub" 2 2 "subtraction";
    r "double.mul" 2 2 "multiplication";
    r "double.div" 2 2 "division; throws Hilti::DivisionByZero";
    r "double.eq" 2 2 "equality";
    r "double.lt" 2 2 "less-than";
    r "double.gt" 2 2 "greater-than";
    r "double.leq" 2 2 "less-or-equal";
    r "double.geq" 2 2 "greater-or-equal";
    r "double.neg" 1 1 "negation";
    r "double.abs" 1 1 "absolute value";
    r "double.to_int" 1 1 "truncation to int";

    (* ---- Strings (Unicode text) ------------------------------------------- *)
    r "string.concat" 2 2 "concatenation";
    r "string.length" 1 1 "length in characters";
    r "string.eq" 2 2 "equality";
    r "string.lt" 2 2 "lexicographic less-than";
    r "string.find" 2 2 "index of first occurrence or -1";
    r "string.substr" 3 3 "substring (start, length)";
    r "string.to_bytes" 1 1 "encode to raw bytes";
    r "string.to_upper" 1 1 "uppercase";
    r "string.to_lower" 1 1 "lowercase";
    r "string.starts_with" 2 2 "prefix test";
    r "string.contains" 2 2 "substring test";
    r "string.split1" 2 2 "split at first separator into a 2-tuple";
    r "string.format" 1 9 "printf-style formatting with %s %d %f ...";

    (* ---- Raw bytes ---------------------------------------------------------- *)
    r "bytes.new" 0 0 "fresh empty bytes object";
    r "bytes.length" 1 1 "number of retained bytes";
    e "bytes.append" 2 2 "append raw data (bytes or string)";
    e "bytes.freeze" 1 1 "declare the stream complete";
    r "bytes.is_frozen" 1 1 "has the stream been frozen?";
    e "bytes.trim" 2 2 "drop data before the given iterator";
    r "bytes.sub" 2 2 "copy the range between two iterators";
    r "bytes.find" 2 3 "iterator to first occurrence of a needle (tuple: found?, iter)";
    r "bytes.match_prefix" 2 2 "does data at iterator start with the given literal?";
    r "bytes.can_read" 2 2 "are N bytes available at the iterator right now?";
    r "bytes.read" 2 2 "read exactly N bytes, blocking; returns (data, iter')";
    r "bytes.to_string" 1 1 "decode as text (latin-1)";
    r "bytes.to_int" 1 2 "parse ASCII digits (optional base); throws ValueError";
    r "bytes.eq" 2 2 "content equality";
    r "bytes.starts_with" 2 2 "prefix test against a literal";
    r "bytes.contains" 2 2 "substring test";
    r "bytes.offset" 2 2 "iterator at the given absolute offset";
    r "bytes.unpack_uint" 3 3 "(iter, width, big_endian?) -> (int, iter')";
    r "bytes.unpack_sint" 3 3 "(iter, width, big_endian?) -> (int, iter')";
    r "bytes.to_upper" 1 1 "ASCII uppercase copy";
    r "bytes.to_lower" 1 1 "ASCII lowercase copy";

    (* ---- Iterators (bytes and containers) ----------------------------------- *)
    r "iter.begin" 1 1 "iterator at the start; sets and maps walk in canonical-key byte order";
    r "iter.end" 1 1 "iterator at the current end";
    r "iter.incr" 1 1 "advance by one element";
    r "iter.advance" 2 2 "advance by N elements";
    r "iter.deref" 1 1 "element under the iterator; blocks on unfrozen bytes";
    r "iter.eq" 2 2 "same position?";
    r "iter.distance" 2 2 "signed element distance between two iterators";
    r "iter.at_end" 1 1 "sits at the current end?";
    r "iter.is_eod" 1 1 "definite end-of-data (frozen bytes only)?";
    r "iter.is_frozen" 1 1 "has the underlying bytes object been frozen?";

    (* ---- IP addresses --------------------------------------------------------- *)
    r "addr.family" 1 1 "AddrFamily::IPv4 or ::IPv6";
    r "addr.eq" 2 2 "equality";
    r "addr.mask" 2 2 "mask to a prefix length, yielding a net";
    r "addr.to_string" 1 1 "dotted-quad / RFC 5952 rendering";

    (* ---- Ports ------------------------------------------------------------------ *)
    r "port.protocol" 1 1 "Port protocol enum (tcp/udp/icmp)";
    r "port.number" 1 1 "numeric port";
    r "port.eq" 2 2 "equality";

    (* ---- CIDR masks ---------------------------------------------------------------- *)
    r "net.contains" 2 2 "does the network contain the address?";
    r "net.prefix" 1 1 "network address";
    r "net.length" 1 1 "prefix length";
    r "net.eq" 2 2 "equality";

    (* ---- Times ------------------------------------------------------------------------ *)
    r "time.add" 2 2 "time + interval";
    r "time.sub" 2 2 "time - time = interval";
    r "time.eq" 2 2 "equality";
    r "time.lt" 2 2 "before?";
    r "time.gt" 2 2 "after?";
    r "time.leq" 2 2 "before-or-equal?";
    r "time.geq" 2 2 "after-or-equal?";
    r "time.wall" 0 0 "wall clock now";
    r "time.to_double" 1 1 "seconds since epoch as double";
    r "time.nsecs" 1 1 "nanoseconds since epoch";

    (* ---- Time intervals ------------------------------------------------------------------ *)
    r "interval.add" 2 2 "sum of intervals";
    r "interval.sub" 2 2 "difference of intervals";
    r "interval.mul" 2 2 "interval scaled by an int";
    r "interval.eq" 2 2 "equality";
    r "interval.lt" 2 2 "less-than";
    r "interval.to_double" 1 1 "seconds as double";
    r "interval.nsecs" 1 1 "nanoseconds";

    (* ---- Tuples ------------------------------------------------------------------------------ *)
    r "tuple.get" 2 2 "N-th element (constant index)";
    r "tuple.length" 1 1 "arity";
    r "tuple.eq" 2 2 "element-wise equality";

    (* ---- Structs ------------------------------------------------------------------------------- *)
    r "struct.get" 2 2 "field value; throws Hilti::UnsetField when unset";
    r "struct.get_default" 3 3 "field value or the given default";
    e "struct.set" 3 3 "set a field";
    e "struct.unset" 2 2 "clear a field";
    r "struct.is_set" 2 2 "has the field been assigned?";

    (* ---- Enumerations ----------------------------------------------------------------------------- *)
    r "enum.from_int" 2 2 "enum member for an integer (Undef if unknown)";
    r "enum.value" 1 1 "integer value of a member";
    r "enum.eq" 2 2 "equality";

    (* ---- Bitsets ---------------------------------------------------------------------------------- *)
    r "bitset.set" 2 2 "union with the given labels";
    r "bitset.clear" 2 2 "remove the given labels";
    r "bitset.has" 2 2 "are all given labels present?";
    r "bitset.eq" 2 2 "equality";

    (* ---- Lists ------------------------------------------------------------------------------------- *)
    e "list.append" 2 2 "append at the back";
    e "list.push_front" 2 2 "insert at the front";
    r "list.pop_front" 1 1 "remove and return the front; throws Underflow";
    r "list.front" 1 1 "peek at the front; throws Underflow";
    r "list.back" 1 1 "peek at the back; throws Underflow";
    r "list.size" 1 1 "number of elements";
    e "list.clear" 1 1 "remove all elements";
    e "list.timeout" 3 3 "set expiration (strategy, interval)";

    (* ---- Vectors ------------------------------------------------------------------------------------ *)
    e "vector.push_back" 2 2 "append";
    r "vector.get" 2 2 "element at index; throws Hilti::IndexError";
    e "vector.set" 3 3 "replace element at index; throws Hilti::IndexError";
    r "vector.size" 1 1 "number of elements";
    e "vector.reserve" 2 2 "pre-allocate capacity";
    e "vector.clear" 1 1 "remove all elements";
    r "vector.pop_back" 1 1 "remove and return the last element";

    (* ---- Hashsets ------------------------------------------------------------------------------------- *)
    e "set.insert" 2 2 "add an element";
    r "set.exists" 2 2 "membership (refreshes access-based expiration)";
    e "set.remove" 2 2 "remove if present";
    r "set.size" 1 1 "number of elements";
    e "set.clear" 1 1 "remove all elements";
    e "set.timeout" 3 3 "set expiration (strategy, interval) against the thread's timer manager";

    (* ---- Hashmaps --------------------------------------------------------------------------------------- *)
    e "map.insert" 3 3 "insert or update a key";
    r "map.get" 2 2 "value for key; throws Hilti::IndexError when absent";
    r "map.get_default" 3 3 "value for key or the given default";
    r "map.exists" 2 2 "key present?";
    e "map.remove" 2 2 "remove a key if present";
    r "map.size" 1 1 "number of entries";
    e "map.clear" 1 1 "remove all entries";
    e "map.default" 2 2 "value returned (and inserted) for missing keys";
    e "map.timeout" 3 3 "set expiration (strategy, interval)";

    (* ---- Channels ----------------------------------------------------------------------------------------- *)
    e "channel.write" 2 2 "blocking write (suspends the fiber while full)";
    r "channel.read" 1 1 "blocking read (suspends the fiber while empty)";
    r "channel.try_read" 1 1 "(ok?, value) without blocking";
    r "channel.size" 1 1 "queued elements";

    (* ---- Packet classification -------------------------------------------------------------------------------- *)
    e "classifier.add" 3 4 "add a rule (field tuple, value, optional priority)";
    e "classifier.compile" 1 1 "freeze the rule set and build the matcher";
    r "classifier.get" 2 2 "match a key tuple; throws Hilti::IndexError on miss";
    r "classifier.matches" 2 2 "does any rule match?";

    (* ---- Regular expressions ------------------------------------------------------------------------------------ *)
    r "regexp.compile" 1 1 "compile a pattern (or list of patterns)";
    r "regexp.find" 2 3 "(match id or -1) searching from an iterator";
    r "regexp.match_token" 2 2 "longest anchored match: (id or -1, iter after); incremental";
    r "regexp.span" 3 3 "(id, begin, end) of first match in a range";
    r "regexp.groups" 1 1 "number of alternative patterns compiled in";

    (* ---- Packet dissection ---------------------------------------------------------------------------------------- *)
    r "overlay.get" 3 3 "(overlay type, field, bytes): unpack one header field";
    r "overlay.size" 1 1 "static byte size of an overlay type";

    (* ---- Timers ---------------------------------------------------------------------------------------------------- *)
    r "timer.new" 1 1 "timer firing the given callable";
    e "timer.cancel" 1 1 "cancel a pending timer";

    (* ---- Timer management -------------------------------------------------------------------------------------------- *)
    r "timer_mgr.new" 0 0 "independent timer manager";
    e "timer_mgr.schedule" 3 3 "(mgr, time, timer|callable): schedule";
    e "timer_mgr.advance" 2 2 "move a manager's clock, firing due timers";
    e "timer_mgr.advance_global" 1 1 "advance the thread's global notion of time";
    r "timer_mgr.current" 1 1 "a manager's current time";
    e "timer_mgr.expire_all" 1 1 "fire everything pending";

    (* ---- Virtual threads ------------------------------------------------------------------------------------------------ *)
    e "thread.schedule" 2 3 "(function, args tuple, thread id): async invoke; args are deep-copied";
    r "thread.id" 0 0 "id of the executing virtual thread";

    (* ---- Callbacks (hooks) ------------------------------------------------------------------------------------------------- *)
    e "hook.run" 2 2 "(hook name, args tuple): run all bodies by priority";
    e "hook.stop" 0 0 "stop running further bodies of the current hook";

    (* ---- Closures ----------------------------------------------------------------------------------------------------------- *)
    r "callable.bind" 2 2 "(function, args tuple): capture a call for later";
    e ~tgt:Optional_target "callable.call" 1 1 "invoke a callable now";

    (* ---- Exceptions --------------------------------------------------------------------------------------------------------- *)
    r "exception.new" 1 2 "(name, optional argument): construct an exception value";
    r "exception.data" 1 1 "argument carried by an exception";
    r "exception.name" 1 1 "exception type name";

    (* ---- File i/o ------------------------------------------------------------------------------------------------------------ *)
    r "file.open" 1 2 "open a file for writing (path, optional mode)";
    e "file.write" 2 2 "write a string or bytes";
    e "file.close" 1 1 "close";

    (* ---- Packet i/o ----------------------------------------------------------------------------------------------------------- *)
    r "iosrc.read" 1 1 "(time, bytes) of the next packet; throws Hilti::Exhausted at EOF";
    e "iosrc.close" 1 1 "release the source";

    (* ---- Profiling ------------------------------------------------------------------------------------------------------------- *)
    e "profiler.start" 1 1 "begin measuring the named block";
    e "profiler.stop" 1 1 "stop measuring and accumulate";
    e "profiler.snapshot" 1 1 "record current totals for the named block";

    (* ---- Debug support --------------------------------------------------------------------------------------------------------- *)
    e "debug.msg" 1 2 "emit a debug-stream message";
    e "debug.assert" 1 2 "abort with diagnostics if the condition is false";
    e "debug.internal_error" 1 1 "signal an internal invariant violation";
  ]

let by_mnemonic : (string, entry) Hashtbl.t =
  let t = Hashtbl.create 256 in
  List.iter
    (fun entry ->
      if Hashtbl.mem t entry.mnemonic then
        invalid_arg ("Isa: duplicate mnemonic " ^ entry.mnemonic);
      Hashtbl.add t entry.mnemonic entry)
    entries;
  t

let find mnemonic = Hashtbl.find_opt by_mnemonic mnemonic

let count = List.length entries

let groups () =
  List.sort_uniq compare (List.map (fun entry -> entry.group) entries)

(** Table 1's functionality/mnemonic pairs, asserted by the test suite. *)
let table1 =
  [ ("Bitsets", "bitset"); ("Booleans", "bool"); ("CIDR masks", "net");
    ("Callbacks", "hook"); ("Closures", "callable"); ("Channels", "channel");
    ("Debug support", "debug"); ("Doubles", "double"); ("Enumerations", "enum");
    ("Exceptions", "exception"); ("File i/o", "file"); ("Flow control", "flow");
    ("Hashmaps", "map"); ("Hashsets", "set"); ("IP addresses", "addr");
    ("Integers", "int"); ("Lists", "list"); ("Packet i/o", "iosrc");
    ("Packet classification", "classifier"); ("Packet dissection", "overlay");
    ("Ports", "port"); ("Profiling", "profiler"); ("Raw data", "bytes");
    ("Regular expressions", "regexp"); ("Strings", "string");
    ("Structs", "struct"); ("Time intervals", "interval");
    ("Timer management", "timer_mgr"); ("Timers", "timer"); ("Times", "time");
    ("Tuples", "tuple"); ("Vectors/arrays", "vector");
    ("Virtual threads", "thread") ]
