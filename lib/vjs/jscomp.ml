(* Closure compiler for the vjs subset. A resolve pass maps every
   identifier to the (depth, slot) pairs of the scopes that declare it,
   and every AST node becomes one OCaml closure over those resolved
   slots. The cost model is per node: each closure ticks exactly where a
   node is evaluated, in pre-order, so charged cycles and the step budget
   do not depend on how the host runs the code.

   Scoping is flow-sensitive: a [var] binds when it executes, in the
   frame of the block it appears in. A slot that has not been bound yet
   holds [unbound], and a read falls through to the next enclosing scope
   that declares the name, then to the globals by name. Assigning a name
   bound nowhere creates a global. *)

open Jsvalue

exception Return_exc of t
exception Break_exc
exception Continue_exc
exception Throw_exc of t

type error = Break_outside_loop | Continue_outside_loop

(* raised while compiling, returned by [program] *)
exception Compile_error of error

let error_message = function
  | Break_outside_loop -> "SyntaxError: break outside a loop"
  | Continue_outside_loop -> "SyntaxError: continue outside a loop"

let cost_per_node = 22

type rt = {
  charge : int -> unit;
  mutable steps : int;
  max_steps : int;
  globals : (string, t) Hashtbl.t;
}

let create_rt ~charge ~max_steps = { charge; steps = 0; max_steps; globals = Hashtbl.create 32 }
let globals rt = rt.globals
let steps rt = rt.steps
let reset_steps rt = rt.steps <- 0

let tick rt =
  rt.steps <- rt.steps + 1;
  if rt.steps > rt.max_steps then raise (Js_error "script step budget exceeded");
  rt.charge cost_per_node

let js_fail fmt = Printf.ksprintf (fun s -> raise (Js_error s)) fmt

(* A frame holds the slots of one scope that declares something; blocks
   that declare nothing run in their parent's frame. *)
type frame = { vars : t array; up : frame }

let rec root = { vars = [||]; up = root }

(* a physically unique value no program can reach *)
let unbound = Obj (Hashtbl.create 1)

let rec up fr d = if d = 0 then fr else up fr.up (d - 1)
let frame size fr = if size = 0 then fr else { vars = Array.make size unbound; up = fr }

type code = rt -> frame -> t
type scode = rt -> frame -> unit

(* ------------------------------------------------------------------ *)
(* Builtin methods, dispatched on the receiver kind                    *)
(* ------------------------------------------------------------------ *)

(* Strings are immutable, so every one-character result shares one
   value. Built on first use: a program that links vjs but never runs JS
   should not carry the table in its heap. *)
let char_strs = lazy (Array.init 256 (fun i -> Str (String.make 1 (Char.chr i))))
let char_str c = (Lazy.force char_strs).(Char.code c)
let no_args : t array = [||]

let call_value fv (argv : t array) =
  match fv with
  | Fun f -> f.call argv
  | Native (_, f) -> f (Array.to_list argv)
  | other -> js_fail "%s is not a function" (type_name other)

let arg (args : t array) n = if n < Array.length args then args.(n) else Undefined

let vec_of_array a = if Array.length a = 0 then vec_create () else { items = a; len = Array.length a }

let string_method name : string -> t array -> t =
  let num args n = int_of_float (to_number (arg args n)) in
  match name with
  | "charCodeAt" ->
      fun recv args ->
        let i = num args 0 in
        if i < 0 || i >= String.length recv then Num Float.nan
        else Num (float_of_int (Char.code recv.[i]))
  | "charAt" ->
      fun recv args ->
        let i = num args 0 in
        if i < 0 || i >= String.length recv then Str "" else char_str recv.[i]
  | "indexOf" ->
      fun hay args ->
        let needle = to_string (arg args 0) in
        let nh = String.length hay and nn = String.length needle in
        let rec go i = if i + nn > nh then -1 else if String.sub hay i nn = needle then i else go (i + 1) in
        Num (float_of_int (go 0))
  | "substring" ->
      fun recv args ->
        let len = String.length recv in
        let a = max 0 (min len (num args 0)) in
        let b = if Array.length args > 1 then max 0 (min len (num args 1)) else len in
        let lo = min a b and hi = max a b in
        Str (String.sub recv lo (hi - lo))
  | "slice" ->
      fun recv args ->
        let n = String.length recv in
        let norm i = if i < 0 then max 0 (n + i) else min n i in
        let a = norm (num args 0) in
        let b = if Array.length args > 1 then norm (num args 1) else n in
        if a >= b then Str "" else Str (String.sub recv a (b - a))
  | "toUpperCase" -> fun recv _ -> Str (String.uppercase_ascii recv)
  | "toLowerCase" -> fun recv _ -> Str (String.lowercase_ascii recv)
  | "split" ->
      fun recv args ->
        let sep = to_string (arg args 0) in
        if sep = "" then Arr (vec_of_array (Array.init (String.length recv) (fun i -> char_str recv.[i])))
        else begin
          let parts = ref [] and start = ref 0 in
          let nh = String.length recv and nn = String.length sep in
          let i = ref 0 in
          while !i + nn <= nh do
            if String.sub recv !i nn = sep then begin
              parts := String.sub recv !start (!i - !start) :: !parts;
              i := !i + nn;
              start := !i
            end
            else incr i
          done;
          parts := String.sub recv !start (nh - !start) :: !parts;
          Arr (vec_of_list (List.rev_map (fun s -> Str s) !parts))
        end
  | _ -> fun _ _ -> js_fail "string has no method %s" name

let array_method name : vec -> t array -> t =
  let items v = Array.sub v.items 0 v.len in
  let callback what args =
    if Array.length args = 0 then js_fail "%s expects a function" what else args.(0)
  in
  match name with
  | "map" ->
      fun recv args ->
        let f = callback "map" args in
        Arr (vec_of_array (Array.map (fun x -> call_value f [| x |]) (items recv)))
  | "filter" ->
      fun recv args ->
        let f = callback "filter" args in
        Arr (vec_of_list (List.filter (fun x -> truthy (call_value f [| x |])) (vec_to_list recv)))
  | "forEach" ->
      fun recv args ->
        let f = callback "forEach" args in
        Array.iter (fun x -> ignore (call_value f [| x |])) (items recv);
        Undefined
  | "reduce" ->
      fun recv args ->
        let f = callback "reduce" args in
        let init, rest =
          match (Array.length args > 1, vec_to_list recv) with
          | true, items -> (args.(1), items)
          | false, x :: xs -> (x, xs)
          | false, [] -> js_fail "reduce of empty array with no initial value"
        in
        List.fold_left (fun acc x -> call_value f [| acc; x |]) init rest
  | "concat" ->
      fun recv args ->
        if Array.length args = 0 then Arr (vec_of_array (items recv))
        else
          let tail = match args.(0) with Arr other -> items other | v -> [| v |] in
          Arr (vec_of_array (Array.append (items recv) tail))
  | "reverse" ->
      fun recv _ ->
        let n = recv.len in
        for i = 0 to (n / 2) - 1 do
          let x = recv.items.(i) in
          recv.items.(i) <- recv.items.(n - 1 - i);
          recv.items.(n - 1 - i) <- x
        done;
        Arr recv
  | "push" ->
      fun recv args ->
        Array.iter (vec_push recv) args;
        Num (float_of_int recv.len)
  | "pop" -> fun recv _ -> vec_pop recv
  | "join" ->
      fun recv args ->
        let sep = if Array.length args > 0 then to_string args.(0) else "," in
        Str (String.concat sep (List.map to_string (vec_to_list recv)))
  | "indexOf" ->
      fun recv args ->
        let target = arg args 0 in
        let rec go i =
          if i >= recv.len then -1 else if strict_equal (vec_get recv i) target then i else go (i + 1)
        in
        Num (float_of_int (go 0))
  | "slice" ->
      fun recv args ->
        let n = recv.len in
        let norm v = let i = int_of_float (to_number v) in if i < 0 then max 0 (n + i) else min n i in
        let a = if Array.length args > 0 then norm args.(0) else 0 in
        let b = if Array.length args > 1 then norm args.(1) else n in
        Arr (vec_of_array (if a < b then Array.sub recv.items a (b - a) else [||]))
  | _ -> fun _ _ -> js_fail "array has no method %s" name

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)
(* ------------------------------------------------------------------ *)

(* A compile-time scope: the slots of one frame. The scope list is
   innermost first; the empty list is the global scope. *)
type scope = (string, int) Hashtbl.t

let scope_of names : scope =
  let sc = Hashtbl.create 8 in
  List.iter (fun n -> if not (Hashtbl.mem sc n) then Hashtbl.replace sc n (Hashtbl.length sc)) names;
  sc

(* push a scope for [names] (none if empty), with its frame size *)
let enter cenv names =
  match names with
  | [] -> (cenv, 0)
  | _ ->
      let sc = scope_of names in
      (sc :: cenv, Hashtbl.length sc)

(* the names a statement list binds in its own frame *)
let decls stmts =
  List.filter_map (function Jsast.Svar (n, _) | Jsast.Sfundecl (n, _, _) -> Some n | _ -> None) stmts

(* the (depth, slot) of every scope that declares [name], innermost first *)
let resolve cenv name =
  let rec go d = function
    | [] -> []
    | sc :: rest -> (
        match Hashtbl.find_opt sc name with
        | Some s -> (d, s) :: go (d + 1) rest
        | None -> go (d + 1) rest)
  in
  go 0 cenv

(* store into the innermost bound slot among [cands]; false if none is *)
let rec write_slots fr d v = function
  | [] -> false
  | (d', s) :: rest ->
      let fr = up fr (d' - d) in
      if fr.vars.(s) != unbound then begin
        fr.vars.(s) <- v;
        true
      end
      else write_slots fr d' v rest

let rec read_slots fr d = function
  | [] -> unbound
  | (d', s) :: rest ->
      let fr = up fr (d' - d) in
      let v = fr.vars.(s) in
      if v != unbound then v else read_slots fr d' rest

let read_global rt name =
  match Hashtbl.find rt.globals name with
  | v -> v
  | exception Not_found -> js_fail "ReferenceError: %s is not defined" name

(* bind [name] in the innermost scope, or in the globals at top level *)
let define cenv name : rt -> frame -> t -> unit =
  match cenv with
  | [] -> fun rt _ v -> Hashtbl.replace rt.globals name v
  | sc :: _ ->
      let s = Hashtbl.find sc name in
      fun _ fr v -> fr.vars.(s) <- v

let typeof_value = function
  | Undefined -> Str "undefined"
  | Null | Arr _ | Obj _ -> Str "object"
  | Bool _ -> Str "boolean"
  | Num _ -> Str "number"
  | Str _ -> Str "string"
  | Fun _ | Native _ -> Str "function"

let of_bool b = if b then Bool true else Bool false

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let int32_op f : t -> t -> t = fun a b -> Num (float_of_int (f (to_int32 a) (to_int32 b)))

(* strings compare by bytes, anything else as numbers; NaN is unordered *)
let relational test a b =
  match (a, b) with
  | Str x, Str y -> of_bool (test (String.compare x y))
  | _ ->
      let x = to_number a and y = to_number b in
      of_bool ((not (Float.is_nan x || Float.is_nan y)) && test (Float.compare x y))

let binop op : t -> t -> t =
  match op with
  | "+" -> (
      fun a b ->
        match (a, b) with
        | Num x, Num y -> Num (x +. y)
        | Str _, _ | _, Str _ -> Str (to_string a ^ to_string b)
        | _ -> Num (to_number a +. to_number b))
  | "-" -> fun a b -> Num (to_number a -. to_number b)
  | "*" -> fun a b -> Num (to_number a *. to_number b)
  | "/" -> fun a b -> Num (to_number a /. to_number b)
  | "%" -> fun a b -> Num (Float.rem (to_number a) (to_number b))
  | "<" -> relational (fun c -> c < 0)
  | "<=" -> relational (fun c -> c <= 0)
  | ">" -> relational (fun c -> c > 0)
  | ">=" -> relational (fun c -> c >= 0)
  | "==" -> fun a b -> of_bool (loose_equal a b)
  | "!=" -> fun a b -> of_bool (not (loose_equal a b))
  | "===" -> fun a b -> of_bool (strict_equal a b)
  | "!==" -> fun a b -> of_bool (not (strict_equal a b))
  | "&" -> int32_op ( land )
  | "|" -> int32_op ( lor )
  | "^" -> int32_op ( lxor )
  | "<<" -> int32_op (fun x y -> Int32.to_int (Int32.of_int (x lsl (y land 31))))
  | ">>" -> int32_op (fun x y -> x asr (y land 31))
  | _ -> fun _ _ -> js_fail "unknown operator %s" op

let unop op : t -> t =
  match op with
  | "-" -> fun v -> Num (-.to_number v)
  | "+" -> fun v -> Num (to_number v)
  | "!" -> fun v -> of_bool (not (truthy v))
  | "~" -> fun v -> Num (float_of_int (lnot (to_int32 v)))
  | _ -> fun _ -> js_fail "unknown unary %s" op

let literal v : code = fun rt _ -> tick rt; v

let rec expr cenv (e : Jsast.expr) : code =
  match e with
  | Jsast.Enum n -> literal (Num n)
  | Jsast.Estr s -> literal (Str s)
  | Jsast.Ebool b -> literal (of_bool b)
  | Jsast.Enull -> literal Null
  | Jsast.Eundefined -> literal Undefined
  | Jsast.Eident name ->
      let cands = resolve cenv name in
      fun rt fr ->
        tick rt;
        let v = read_slots fr 0 cands in
        if v != unbound then v else read_global rt name
  | Jsast.Earray items ->
      let items = exprs cenv items in
      fun rt fr ->
        tick rt;
        Arr (vec_of_array (eval_all items rt fr))
  | Jsast.Eobject fields ->
      let fields = List.map (fun (k, v) -> (k, expr cenv v)) fields in
      fun rt fr ->
        tick rt;
        let tbl = Hashtbl.create 8 in
        List.iter (fun (k, v) -> Hashtbl.replace tbl k (v rt fr)) fields;
        Obj tbl
  | Jsast.Efun (params, body) ->
      let f = func cenv params body in
      fun rt fr -> tick rt; Fun { fname = "anonymous"; call = f rt fr }
  | Jsast.Ecall (f, args) ->
      let f = expr cenv f and args = exprs cenv args in
      fun rt fr ->
        tick rt;
        let fv = f rt fr in
        call_value fv (eval_all args rt fr)
  | Jsast.Emethod (recv, name, args) ->
      let recv = expr cenv recv and args = exprs cenv args in
      let smeth = string_method name and ameth = array_method name in
      fun rt fr ->
        tick rt;
        let rv = recv rt fr in
        let argv = eval_all args rt fr in
        (match rv with
        | Str s -> smeth s argv
        | Arr v -> ameth v argv
        | Obj tbl -> (
            match Hashtbl.find tbl name with
            | fv -> call_value fv argv
            | exception Not_found -> js_fail "object has no method %s" name)
        | other -> js_fail "%s has no method %s" (type_name other) name)
  | Jsast.Eprop (recv, name) ->
      let recv = expr cenv recv in
      let length = name = "length" in
      fun rt fr ->
        tick rt;
        (match recv rt fr with
        | Str s when length -> Num (float_of_int (String.length s))
        | Arr v when length -> Num (float_of_int v.len)
        | Obj tbl -> ( match Hashtbl.find tbl name with v -> v | exception Not_found -> Undefined)
        | rv -> js_fail "cannot read property %s of %s" name (type_name rv))
  | Jsast.Eindex (recv, idx) ->
      let recv = expr cenv recv and idx = expr cenv idx in
      fun rt fr ->
        tick rt;
        let rv = recv rt fr in
        let iv = idx rt fr in
        (match rv with
        | Arr v -> vec_get v (int_of_float (to_number iv))
        | Str s ->
            let i = int_of_float (to_number iv) in
            if i < 0 || i >= String.length s then Undefined else char_str s.[i]
        | Obj tbl -> ( match Hashtbl.find tbl (to_string iv) with v -> v | exception Not_found -> Undefined)
        | _ -> js_fail "cannot index %s" (type_name rv))
  | Jsast.Eunop (op, a) ->
      let a = expr cenv a and op = unop op in
      fun rt fr -> tick rt; op (a rt fr)
  | Jsast.Ebinop ("&&", a, b) ->
      let a = expr cenv a and b = expr cenv b in
      fun rt fr ->
        tick rt;
        let va = a rt fr in
        if truthy va then b rt fr else va
  | Jsast.Ebinop ("||", a, b) ->
      let a = expr cenv a and b = expr cenv b in
      fun rt fr ->
        tick rt;
        let va = a rt fr in
        if truthy va then va else b rt fr
  | Jsast.Ebinop (op, a, b) ->
      let a = expr cenv a and b = expr cenv b and op = binop op in
      fun rt fr ->
        tick rt;
        let va = a rt fr in
        let vb = b rt fr in
        op va vb
  | Jsast.Eassign (target, value) ->
      (* the value is evaluated before the target's receiver and index;
         the target node itself charges nothing *)
      let value = expr cenv value and store = assign cenv target in
      fun rt fr ->
        tick rt;
        let v = value rt fr in
        store rt fr v;
        v
  | Jsast.Econd (c, a, b) ->
      let c = expr cenv c and a = expr cenv a and b = expr cenv b in
      fun rt fr -> tick rt; if truthy (c rt fr) then a rt fr else b rt fr
  | Jsast.Etypeof (Jsast.Eident name) ->
      (* one tick: an undeclared name is "undefined", not an error *)
      let cands = resolve cenv name in
      fun rt fr ->
        tick rt;
        let v = read_slots fr 0 cands in
        if v != unbound then typeof_value v
        else (
          match Hashtbl.find rt.globals name with
          | v -> typeof_value v
          | exception Not_found -> Str "undefined")
  | Jsast.Etypeof e ->
      let e = expr cenv e in
      fun rt fr -> tick rt; typeof_value (e rt fr)

and exprs cenv es = Array.of_list (List.map (expr cenv) es)

and eval_all (codes : code array) rt fr =
  let n = Array.length codes in
  if n = 0 then no_args
  else begin
    let a = Array.make n Undefined in
    for i = 0 to n - 1 do
      a.(i) <- codes.(i) rt fr
    done;
    a
  end

and assign cenv (target : Jsast.expr) : rt -> frame -> t -> unit =
  match target with
  | Jsast.Eident name -> (
      let cands = resolve cenv name in
      fun rt fr v -> if not (write_slots fr 0 v cands) then Hashtbl.replace rt.globals name v)
  | Jsast.Eindex (recv, idx) -> (
      let recv = expr cenv recv and idx = expr cenv idx in
      fun rt fr v ->
        let rv = recv rt fr in
        let iv = idx rt fr in
        match rv with
        | Arr vec -> vec_set vec (int_of_float (to_number iv)) v
        | Obj tbl -> Hashtbl.replace tbl (to_string iv) v
        | _ -> js_fail "cannot index-assign %s" (type_name rv))
  | Jsast.Eprop (recv, name) -> (
      let recv = expr cenv recv in
      fun rt fr v ->
        match recv rt fr with
        | Obj tbl -> Hashtbl.replace tbl name v
        | rv -> js_fail "cannot set property %s of %s" name (type_name rv))
  | _ -> fun _ _ _ -> js_fail "invalid assignment target"

(* A function: a frame for its parameters and body declarations; missing
   arguments are bound to [Undefined], a [return] unwinds to here. *)
and func cenv params body : rt -> frame -> t array -> t =
  let cenv, size = enter cenv (params @ decls body) in
  let pslots = Array.of_list (List.map (fun p -> Hashtbl.find (List.hd cenv) p) params) in
  let body = stmts ~loop:false cenv body in
  fun rt fr args ->
    let fr = frame size fr in
    for i = 0 to Array.length pslots - 1 do
      fr.vars.(pslots.(i)) <- arg args i
    done;
    match body rt fr with () -> Undefined | exception Return_exc v -> v

(* a statement list run in a fresh scope: a frame only if it declares.
   [loop] says whether the list sits in a loop of the same function,
   where [break] and [continue] are allowed. *)
and block ~loop cenv body : scode =
  let cenv, size = enter cenv (decls body) in
  let body = stmts ~loop cenv body in
  if size = 0 then body else fun rt fr -> body rt (frame size fr)

and stmts ~loop cenv body : scode =
  match Array.of_list (List.map (stmt ~loop cenv) body) with
  | [||] -> fun _ _ -> ()
  | [| s |] -> s
  | codes ->
      fun rt fr ->
        for i = 0 to Array.length codes - 1 do
          codes.(i) rt fr
        done

and stmt ~loop cenv (s : Jsast.stmt) : scode =
  match s with
  | Jsast.Sexpr e ->
      let e = expr cenv e in
      fun rt fr -> tick rt; ignore (e rt fr)
  | Jsast.Svar (name, init) ->
      let def = define cenv name and init = Option.map (expr cenv) init in
      fun rt fr ->
        tick rt;
        def rt fr (match init with Some e -> e rt fr | None -> Undefined)
  | Jsast.Sif (c, t, f) ->
      let c = expr cenv c and t = block ~loop cenv t and f = block ~loop cenv f in
      fun rt fr -> tick rt; if truthy (c rt fr) then t rt fr else f rt fr
  | Jsast.Swhile (c, body) ->
      let c = expr cenv c and body = block ~loop:true cenv body in
      fun rt fr ->
        tick rt;
        (try
           while truthy (c rt fr) do
             try body rt fr with Continue_exc -> ()
           done
         with Break_exc -> ())
  | Jsast.Sfor (init, cond, step, body) ->
      (* init, cond and step share one frame; the body gets its own *)
      let fcenv, size = enter cenv (match init with Some s -> decls [ s ] | None -> []) in
      let init = match init with Some s -> stmt ~loop fcenv s | None -> fun _ _ -> () in
      let cond = Option.map (expr fcenv) cond and step = Option.map (expr fcenv) step in
      let body = block ~loop:true fcenv body in
      fun rt fr ->
        tick rt;
        let fr = frame size fr in
        init rt fr;
        let check () = match cond with Some c -> truthy (c rt fr) | None -> true in
        (try
           while check () do
             (try body rt fr with Continue_exc -> ());
             match step with Some e -> ignore (e rt fr) | None -> ()
           done
         with Break_exc -> ())
  | Jsast.Sreturn e ->
      let e = Option.map (expr cenv) e in
      fun rt fr ->
        tick rt;
        raise (Return_exc (match e with Some e -> e rt fr | None -> Undefined))
  | Jsast.Sbreak ->
      if not loop then raise (Compile_error Break_outside_loop);
      fun rt _ -> tick rt; raise Break_exc
  | Jsast.Scontinue ->
      if not loop then raise (Compile_error Continue_outside_loop);
      fun rt _ -> tick rt; raise Continue_exc
  | Jsast.Sfundecl (name, params, body) ->
      let def = define cenv name and f = func cenv params body in
      fun rt fr -> tick rt; def rt fr (Fun { fname = name; call = f rt fr })
  | Jsast.Sblock body ->
      let body = block ~loop cenv body in
      fun rt fr -> tick rt; body rt fr
  | Jsast.Sthrow e ->
      let e = expr cenv e in
      fun rt fr -> tick rt; raise (Throw_exc (e rt fr))
  | Jsast.Stry (body, catch, fin) ->
      let body = block ~loop cenv body and fin = block ~loop cenv fin in
      (* runtime errors are catchable, surfaced as strings *)
      let catch =
        Option.map
          (fun (binding, cbody) ->
            let ccenv, size = enter cenv (binding :: decls cbody) in
            let slot = Hashtbl.find (List.hd ccenv) binding in
            let cbody = stmts ~loop ccenv cbody in
            fun rt fr v ->
              let fr = frame size fr in
              fr.vars.(slot) <- v;
              cbody rt fr)
          catch
      in
      fun rt fr ->
        tick rt;
        (try
           try body rt fr with
           | Throw_exc v as e -> ( match catch with Some c -> c rt fr v | None -> raise e)
           | Js_error msg as e -> ( match catch with Some c -> c rt fr (Str msg) | None -> raise e)
         with e ->
           fin rt fr;
           raise e);
        fin rt fr

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

type top = Hoisted of string * (rt -> frame -> t array -> t) | Value of code | Exec of scode

type program = top list

(* Top-level function declarations are bound first and charge nothing; a
   top-level expression statement charges only its expression, and the
   last one's value is the program's value (REPL-style). *)
let program (prog : Jsast.program) : (program, error) result =
  match
    List.partition_map
      (function
        | Jsast.Sfundecl (name, params, body) -> Left (Hoisted (name, func [] params body))
        | Jsast.Sexpr e -> Right (Value (expr [] e))
        | s -> Right (Exec (stmt ~loop:false [] s)))
      prog
  with
  | hoisted, rest -> Ok (hoisted @ rest)
  | exception Compile_error e -> Error e

let exec rt prog =
  List.fold_left
    (fun result top ->
      match top with
      | Hoisted (name, f) ->
          Hashtbl.replace rt.globals name (Fun { fname = name; call = f rt root });
          result
      | Value e -> e rt root
      | Exec s ->
          s rt root;
          result)
    Undefined prog

let outcome f x =
  match f x with
  | v -> Ok v
  | exception Js_error msg -> Error msg
  | exception Throw_exc v -> Error ("uncaught: " ^ to_string v)
  | exception Return_exc _ -> Error "return outside function"

let run rt prog = outcome (exec rt) prog
let apply fv args = outcome (call_value fv) args
