(** The firewall's rule language and an independent reference matcher
    (§4/§6.3: the paper validates the HILTI firewall against a simple
    Python script implementing the same semantics; this module is that
    reference implementation).

    Rules are [(src-net, dst-net) -> allow|deny], applied in order of
    specification, {e first match wins}, default deny.  A matching allow
    additionally installs a dynamic rule permitting the reverse direction
    until 5 minutes of inactivity have passed.

    {2 First-match semantics, precisely}

    For a packet [(src, dst)] the static verdict is the [action] of the
    {e earliest} rule in the list whose [src] and [dst] constraints both
    cover the packet ([None] covers everything); if no rule matches, the
    verdict is [Deny].  The HILTI classifier of {!Fw_hilti} implements
    exactly this contract, so the two are compared verdict-for-verdict. *)

open Hilti_types

type action = Allow | Deny

type rule = {
  src : Network.t option;  (** [None] is a wildcard *)
  dst : Network.t option;
  action : action;
}

exception Parse_error of string

(* "10.3.2.1/32 10.1.0.0/16 allow" | "* 10.1.7.0/24 deny" *)
let parse_rule line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [ src; dst; action ] ->
      let net = function "*" -> None | s -> Some (Network.of_string s) in
      let action =
        match String.lowercase_ascii action with
        | "allow" -> Allow
        | "deny" -> Deny
        | a -> raise (Parse_error ("bad action " ^ a))
      in
      { src = net src; dst = net dst; action }
  | _ -> raise (Parse_error ("bad rule: " ^ line))

let parse_rules text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map parse_rule

let rule_to_string r =
  let net = function None -> "*" | Some n -> Network.to_string n in
  Printf.sprintf "%s %s %s" (net r.src) (net r.dst)
    (match r.action with Allow -> "allow" | Deny -> "deny")

(* ---- Reference matcher -------------------------------------------------------- *)

type reference = {
  rules : rule list;
  dyn : (string, Time_ns.t) Hashtbl.t;  (* "src>dst" -> last activity *)
  idle_timeout : Interval_ns.t;
  mutable matches : int;
  mutable denials : int;
}

let reference ?(idle_timeout = Interval_ns.of_secs 300) rules =
  { rules; dyn = Hashtbl.create 256; idle_timeout; matches = 0; denials = 0 }

let key a b = Addr.to_string a ^ ">" ^ Addr.to_string b

let static_action t src dst =
  let matches net a = match net with None -> true | Some n -> Network.contains n a in
  let rec go = function
    | [] -> Deny
    | r :: rest ->
        if matches r.src src && matches r.dst dst then r.action else go rest
  in
  go t.rules

(** Decide one packet; [true] = allowed.  Mirrors Fig. 5's logic: dynamic
    state is consulted first and refreshed on use; a static allow installs
    dynamic rules for both directions. *)
let match_packet t ~ts ~src ~dst =
  let k = key src dst in
  let allowed =
    match Hashtbl.find_opt t.dyn k with
    | Some last
      when Interval_ns.compare (Interval_ns.of_ns (Time_ns.diff ts last)) t.idle_timeout
           <= 0 ->
        Hashtbl.replace t.dyn k ts;
        true
    | _ -> (
        if Hashtbl.mem t.dyn k then Hashtbl.remove t.dyn k;
        match static_action t src dst with
        | Allow ->
            Hashtbl.replace t.dyn (key src dst) ts;
            Hashtbl.replace t.dyn (key dst src) ts;
            true
        | Deny -> false)
  in
  if allowed then t.matches <- t.matches + 1 else t.denials <- t.denials + 1;
  allowed
