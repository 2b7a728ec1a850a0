(* Tests for the vjs JavaScript engine and the Figure 14 workload. *)

module V = Vjs.Jsvalue

let eval_num src =
  let e = Vjs.Engine.create () in
  match Vjs.Engine.eval e src with
  | Ok (V.Num n) -> n
  | Ok v -> Alcotest.failf "expected number, got %s" (V.to_string v)
  | Error msg -> Alcotest.failf "js error: %s" msg

let eval_str src =
  let e = Vjs.Engine.create () in
  match Vjs.Engine.eval e src with
  | Ok (V.Str s) -> s
  | Ok v -> Alcotest.failf "expected string, got %s" (V.to_string v)
  | Error msg -> Alcotest.failf "js error: %s" msg

let eval_value src =
  let e = Vjs.Engine.create () in
  match Vjs.Engine.eval e src with
  | Ok v -> v
  | Error msg -> Alcotest.failf "js error: %s" msg

let fnum = Alcotest.(check (float 1e-9))

let test_arithmetic () =
  fnum "arith" 14.0 (eval_num "2 + 3 * 4");
  fnum "paren" 20.0 (eval_num "(2 + 3) * 4");
  fnum "float div" 2.5 (eval_num "5 / 2");
  fnum "mod" 1.0 (eval_num "7 % 3");
  fnum "neg" (-6.0) (eval_num "-2 * 3")

let test_variables () =
  fnum "var" 15.0 (eval_num "var x = 5; x * 3");
  fnum "assign" 7.0 (eval_num "var x = 1; x = 7; x");
  fnum "compound" 12.0 (eval_num "var x = 3; x += 9; x")

let test_strings () =
  Alcotest.(check string) "concat" "hello world" (eval_str {|"hello" + " " + "world"|});
  fnum "length" 5.0 (eval_num {|"hello".length|});
  Alcotest.(check string) "charAt" "e" (eval_str {|"hello".charAt(1)|});
  fnum "charCodeAt" 104.0 (eval_num {|"hello".charCodeAt(0)|});
  Alcotest.(check string) "fromCharCode" "AB" (eval_str "String.fromCharCode(65, 66)");
  Alcotest.(check string) "substring" "ell" (eval_str {|"hello".substring(1, 4)|});
  fnum "indexOf" 2.0 (eval_num {|"hello".indexOf("ll")|});
  Alcotest.(check string) "upper" "HI" (eval_str {|"hi".toUpperCase()|});
  Alcotest.(check string) "number to string" "42x" (eval_str {|42 + "x"|})

let test_bitwise () =
  (* JS ToInt32 semantics *)
  fnum "and" 4.0 (eval_num "12 & 6");
  fnum "or" 14.0 (eval_num "12 | 6");
  fnum "xor" 10.0 (eval_num "12 ^ 6");
  fnum "shl" 48.0 (eval_num "12 << 2");
  fnum "shr" 3.0 (eval_num "12 >> 2");
  fnum "not" (-13.0) (eval_num "~12");
  (* ToInt32 wraps modulo 2^32 instead of saturating *)
  fnum "2^31+ wraps" (-1294967296.0) (eval_num "3000000000 | 0");
  fnum "-2^31- wraps" 1294967296.0 (eval_num "(-3000000000) >> 0");
  fnum "2^32 + 1" 1.0 (eval_num "4294967297 | 0");
  fnum "10^20" 1661992960.0 (eval_num "Math.pow(10, 20) | 0");
  fnum "2^64" 0.0 (eval_num "Math.pow(2, 64) | 0");
  fnum "2^70 + 2^31" (-2147483648.0) (eval_num "(Math.pow(2, 70) + Math.pow(2, 31)) | 0");
  fnum "truncates toward zero" (-3.0) (eval_num "-3.7 | 0");
  fnum "shl overflows" (-2147483648.0) (eval_num "1 << 31");
  fnum "not of 2^32 - 1" 0.0 (eval_num "~4294967295");
  fnum "infinity" 0.0 (eval_num {|("Infinity" * 1) | 0|})

let test_numbers () =
  let nan src = Alcotest.(check bool) src true (Float.is_nan (eval_num src)) in
  (* only JS numeric syntax converts *)
  nan {|"1_000" * 1|};
  nan {|"inf" * 1|};
  nan {|"infinity" - 0|};
  nan {|"nan" * 1|};
  nan {|"0o17" * 1|};
  nan {|"-0x10" * 1|};
  nan {|"1e" * 1|};
  nan {|"." * 1|};
  nan {|"12abc" * 1|};
  fnum "decimal" 1000.0 (eval_num {|"1000" * 1|});
  fnum "trimmed" 42.0 (eval_num {|" \t42\n " * 1|});
  fnum "fraction" 0.5 (eval_num {|".5" * 1|});
  fnum "exponent" 1500.0 (eval_num {|"1.5e3" * 1|});
  fnum "signed exponent" (-0.015) (eval_num {|"-1.5E-2" * 1|});
  fnum "hex" 255.0 (eval_num {|"0xff" * 1|});
  fnum "empty" 0.0 (eval_num {|"" * 1|});
  fnum "blank" 0.0 (eval_num {|"   " * 1|});
  fnum "Infinity" Float.infinity (eval_num {|"Infinity" * 1|});
  fnum "-Infinity" Float.neg_infinity (eval_num {|"-Infinity" * 1|});
  (* non-finite numbers print as JS does *)
  Alcotest.(check string) "Infinity renders" "Infinity" (eval_str {|"" + ("Infinity" * 1)|});
  Alcotest.(check string) "-Infinity renders" "-Infinity" (eval_str {|"" + (-1 / 0)|});
  Alcotest.(check string) "NaN renders" "NaN" (eval_str {|"" + (0 / 0)|});
  (* other numbers print the shortest digits that round-trip *)
  let prints expect src = Alcotest.(check string) src expect (eval_str ({|"" + |} ^ src)) in
  prints "0.3333333333333333" "1 / 3";
  prints "123456.789" "123456.789";
  prints "0.30000000000000004" "(0.1 + 0.2)";
  prints "-2.5" "(-2.5)";
  prints "0" "(-0)";
  prints "0.000001" "(1 / 1000000)";
  prints "1e-7" "(1 / 10000000)";
  prints "1.5e-7" "(15 / 100000000)";
  prints "9007199254740992" "Math.pow(2, 53)";
  prints "100000000000000000000" "Math.pow(10, 20)";
  prints "1e+21" "Math.pow(10, 21)";
  prints "-1.2345e+22" "(-12345 * Math.pow(10, 18))"

let test_comparisons () =
  fnum "lt true" 1.0 (eval_num "(1 < 2) ? 1 : 0");
  fnum "strict eq" 0.0 (eval_num {|(1 === "1") ? 1 : 0|});
  fnum "loose eq" 1.0 (eval_num {|(1 == "1") ? 1 : 0|});
  fnum "strict neq" 1.0 (eval_num {|(1 !== "1") ? 1 : 0|})

let test_control_flow () =
  fnum "if" 10.0 (eval_num "var x = 0; if (true) { x = 10; } else { x = 20; } x");
  fnum "while" 45.0
    (eval_num "var s = 0; var i = 0; while (i < 10) { s += i; i++; } s");
  fnum "for" 45.0 (eval_num "var s = 0; for (var i = 0; i < 10; i++) { s += i; } s");
  fnum "break" 3.0
    (eval_num "var i = 0; while (true) { if (i === 3) { break; } i++; } i");
  fnum "continue" 25.0
    (eval_num
       "var s = 0; for (var i = 0; i < 10; i++) { if (i % 2 === 0) { continue; } s += i; } s")

let test_functions () =
  fnum "call" 7.0 (eval_num "function add(a, b) { return a + b; } add(3, 4)");
  fnum "recursion" 120.0
    (eval_num "function fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); } fact(5)");
  fnum "hoisting" 9.0 (eval_num "var r = sq(3); function sq(x) { return x * x; } r");
  fnum "expression fn" 16.0 (eval_num "var f = function(x) { return x * x; }; f(4)")

let test_closures () =
  fnum "closure" 15.0
    (eval_num
       {|function adder(n) { return function(x) { return x + n; }; }
         var add5 = adder(5);
         add5(10)|});
  fnum "closure state" 3.0
    (eval_num
       {|function counter() { var c = 0; return function() { c = c + 1; return c; }; }
         var next = counter();
         next(); next(); next()|})

let test_arrays () =
  fnum "literal index" 20.0 (eval_num "var a = [10, 20, 30]; a[1]");
  fnum "length" 3.0 (eval_num "[1,2,3].length");
  fnum "push" 4.0 (eval_num "var a = [1,2,3]; a.push(9); a.length");
  fnum "pop" 3.0 (eval_num "var a = [1,2,3]; a.pop()");
  Alcotest.(check string) "join" "1-2-3" (eval_str {|[1,2,3].join("-")|});
  fnum "assign element" 99.0 (eval_num "var a = [0]; a[0] = 99; a[0]");
  fnum "grow" 5.0 (eval_num "var a = []; a[4] = 1; a.length")

let test_objects () =
  fnum "literal" 42.0 (eval_num "var o = { x: 42 }; o.x");
  fnum "assign prop" 10.0 (eval_num "var o = {}; o.y = 10; o.y");
  fnum "index string" 7.0 (eval_num {|var o = { k: 7 }; o["k"]|});
  Alcotest.(check string) "typeof" "object" (eval_str "typeof {}")

let test_array_higher_order () =
  fnum "map" 6.0 (eval_num "[1,2,3].map(function(x) { return x * 2; })[2]");
  fnum "filter" 2.0 (eval_num "[1,2,3,4].filter(function(x) { return x % 2 === 0; }).length");
  fnum "reduce" 10.0 (eval_num "[1,2,3,4].reduce(function(a, x) { return a + x; }, 0)");
  fnum "reduce no seed" 24.0 (eval_num "[2,3,4].reduce(function(a, x) { return a * x; })");
  fnum "forEach" 12.0
    (eval_num "var s = 0; [1,2,3].forEach(function(x) { s += x * 2; }); s");
  fnum "concat" 5.0 (eval_num "[1,2].concat([3,4,5]).length");
  fnum "reverse" 3.0 (eval_num "[1,2,3].reverse()[0]")

let test_json () =
  Alcotest.(check string) "stringify object" {|{"a":1,"b":[true,null,"x"]}|}
    (eval_str {|JSON.stringify({ a: 1, b: [true, null, "x"] })|});
  Alcotest.(check string) "stringify escapes" "\"a\\nb\"" (eval_str "JSON.stringify(\"a\\nb\")");
  (* JSON has no non-finite numbers *)
  Alcotest.(check string) "stringify non-finite" "[null,null,null,0.5]"
    (eval_str "JSON.stringify([1 / 0, -1 / 0, 0 / 0, 1 / 2])");
  fnum "parse number" 42.0 (eval_num {|JSON.parse("42")|});
  fnum "parse nested" 7.0
    (eval_num "JSON.parse(\"{\\\"x\\\": [1, {\\\"y\\\": 7}]}\").x[1].y");
  fnum "roundtrip" 3.0
    (eval_num {|JSON.parse(JSON.stringify({ k: [1, 2, 3] })).k.length|});
  (* parse errors surface as JS errors, not crashes *)
  let e = Vjs.Engine.create () in
  match Vjs.Engine.eval e {|JSON.parse("{bad json")|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_try_catch () =
  fnum "catch" 7.0 (eval_num {|var r = 0; try { throw 7; r = 1; } catch (e) { r = e; } r|});
  fnum "no throw" 1.0 (eval_num "var r = 0; try { r = 1; } catch (e) { r = 2; } r");
  fnum "finally always" 3.0
    (eval_num "var r = 0; try { r = 1; } finally { r = 3; } r");
  fnum "finally after catch" 5.0
    (eval_num "var r = 0; try { throw 1; } catch (e) { r = 4; } finally { r = r + 1; } r");
  Alcotest.(check string) "throw value" "boom"
    (eval_str {|var r = ""; try { throw "boom"; } catch (e) { r = e; } r|});
  (* runtime errors are catchable *)
  fnum "catch runtime error" 9.0
    (eval_num "var r = 0; try { undefined_fn(); } catch (e) { r = 9; } r");
  (* throws propagate through calls *)
  fnum "propagation" 42.0
    (eval_num
       {|function inner() { throw 42; }
         function outer() { inner(); return 0; }
         var r = 0;
         try { outer(); } catch (e) { r = e; }
         r|})

let test_uncaught_throw_is_error () =
  let e = Vjs.Engine.create () in
  (match Vjs.Engine.eval e "throw 5;" with
  | Error msg -> Alcotest.(check bool) "uncaught" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error");
  (* engine survives *)
  match Vjs.Engine.eval e "1 + 1" with
  | Ok (V.Num 2.0) -> ()
  | _ -> Alcotest.fail "engine should survive a throw"

let test_math_builtins () =
  fnum "floor" 3.0 (eval_num "Math.floor(3.9)");
  fnum "max" 9.0 (eval_num "Math.max(1, 9, 4)");
  fnum "abs" 5.0 (eval_num "Math.abs(0 - 5)");
  fnum "pow" 8.0 (eval_num "Math.pow(2, 3)")

let test_truthiness () =
  fnum "empty string falsy" 0.0 (eval_num {|"" ? 1 : 0|});
  fnum "zero falsy" 0.0 (eval_num "0 ? 1 : 0");
  fnum "null falsy" 0.0 (eval_num "null ? 1 : 0");
  fnum "object truthy" 1.0 (eval_num "({}) ? 1 : 0");
  (* && returns the first falsy operand without evaluating the rest *)
  match eval_value "false && missing_fn()" with
  | V.Bool false -> ()
  | v -> Alcotest.failf "shortcircuit: got %s" (V.to_string v)

let test_errors () =
  let e = Vjs.Engine.create () in
  (match Vjs.Engine.eval e "undefined_variable_xyz" with
  | Error msg -> Alcotest.(check bool) "reference error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error");
  (match Vjs.Engine.eval e "var x = (" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected syntax error");
  (* the engine survives errors *)
  match Vjs.Engine.eval e "1 + 1" with
  | Ok (V.Num 2.0) -> ()
  | _ -> Alcotest.fail "engine should survive"

let test_step_budget () =
  let e = Vjs.Engine.create () in
  match Vjs.Engine.eval e "while (true) { }" with
  | Error msg -> Alcotest.(check bool) "budget error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected step budget error"

let test_native_bindings () =
  let e = Vjs.Engine.create () in
  Vjs.Engine.register e "host_add" (fun args ->
      match args with
      | [ V.Num a; V.Num b ] -> V.Num (a +. b)
      | _ -> V.Undefined);
  match Vjs.Engine.eval e "host_add(20, 22)" with
  | Ok (V.Num 42.0) -> ()
  | other ->
      Alcotest.failf "binding failed: %s"
        (match other with Ok v -> V.to_string v | Error e -> e)

let test_print_console () =
  let e = Vjs.Engine.create () in
  (match Vjs.Engine.eval e {|print("hello", 42)|} with Ok _ -> () | Error m -> Alcotest.fail m);
  Alcotest.(check string) "console" "hello 42\n" (Vjs.Engine.console_output e)

let test_engine_charges () =
  let total = ref 0 in
  let e = Vjs.Engine.create ~charge:(fun c -> total := !total + c) () in
  Alcotest.(check bool) "alloc charged" true (!total >= Vjs.Engine.context_alloc_cycles);
  let before = !total in
  (match Vjs.Engine.eval e "1 + 1" with Ok _ -> () | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "eval charged" true (!total > before);
  let before = !total in
  Vjs.Engine.destroy e;
  Alcotest.(check int) "teardown charged" (before + Vjs.Engine.teardown_cycles) !total

(* ------------------------------------------------------------------ *)
(* Differential oracle: the compiled engine against the tree walker     *)
(* ------------------------------------------------------------------ *)

(* Run a program on both evaluators with a [print] global and a tiny
   step budget; each side reports (result, steps, charged cycles,
   console). *)
let print_native console =
  V.Native
    ( "print",
      fun args ->
        Buffer.add_string console (String.concat " " (List.map V.to_string args));
        Buffer.add_char console '\n';
        V.Undefined )

let render = function
  | Ok v -> Printf.sprintf "%s %s" (V.type_name v) (V.to_string v)
  | Error msg -> "error: " ^ msg

let parse src = Vjs.Jsparse.parse (Vjs.Jslex.tokenize src)

let run_compiled ~max_steps src =
  let cycles = ref 0 and console = Buffer.create 64 in
  let rt = Vjs.Jscomp.create_rt ~charge:(fun c -> cycles := !cycles + c) ~max_steps in
  Hashtbl.replace (Vjs.Jscomp.globals rt) "print" (print_native console);
  let r =
    match Vjs.Jscomp.program (parse src) with
    | Ok prog -> Vjs.Jscomp.run rt prog
    | Error e -> Error (Vjs.Jscomp.error_message e)
  in
  (render r, Vjs.Jscomp.steps rt, !cycles, Buffer.contents console)

let run_reference ~max_steps src =
  let cycles = ref 0 and console = Buffer.create 64 in
  let it = Vjs_ref.create ~charge:(fun c -> cycles := !cycles + c) ~max_steps () in
  let globals = Vjs_ref.env_create None in
  Vjs_ref.env_define globals "print" (print_native console);
  let r = Vjs_ref.run it globals (parse src) in
  (render r, Vjs_ref.steps it, !cycles, Buffer.contents console)

let show (r, steps, cycles, console) =
  Printf.sprintf "%s; %d steps; %d cycles; console %S" r steps cycles console

let agree ~max_steps src =
  let c = run_compiled ~max_steps src and r = run_reference ~max_steps src in
  if c <> r then
    QCheck.Test.fail_reportf "compiled:  %s\nreference: %s" (show c) (show r)
  else true

(* Small programs over a few names, some never declared: blocks, [var]
   before and after use, closures, loops with break/continue,
   try/catch/finally, throw, implicit globals and typeof. [in_loop] and
   [in_fun] keep break/continue/return where the walker handles them. *)
let gen_program =
  let open QCheck.Gen in
  let name = frequencyl [ (3, "a"); (3, "b"); (3, "x"); (1, "y"); (1, "zz") ] in
  let fname = oneofl [ "f"; "g"; "h" ] in
  let rec expr d =
    let leaf =
      oneof
        [
          map string_of_int (int_range 0 9);
          oneofl [ {|"s"|}; {|""|}; "true"; "null"; "undefined"; "3000000000" ];
          name;
          map (Printf.sprintf "typeof %s") name;
        ]
    in
    if d <= 0 then leaf
    else
      let sub = expr (d - 1) in
      frequency
        [
          (4, leaf);
          ( 3,
            map3 (Printf.sprintf "(%s %s %s)") sub
              (oneofl [ "+"; "-"; "*"; "<"; "==="; "=="; "&&"; "||"; "&"; "|"; "<<"; ">>" ])
              sub );
          (1, map3 (Printf.sprintf "(%s ? %s : %s)") sub sub sub);
          (1, map2 (Printf.sprintf "(%s = %s)") name sub);
          (* the index is masked: a huge one would grow the array *)
          (1, map2 (Printf.sprintf "([1, 2][(%s) & 3] = %s)") sub sub);
          (1, map (Printf.sprintf "(({ k: 1 }).k = %s)") sub);
          (1, map (Printf.sprintf "(%s++)") name);
          (1, map2 (Printf.sprintf "%s(%s)") fname sub);
          ( 1,
            map2
              (Printf.sprintf "(function (p) { %s return p + 1; })(%s)")
              (stmts (d - 1) ~in_loop:false ~in_fun:true)
              sub );
          (1, map2 (Printf.sprintf "[%s, %s].length") sub sub);
          (1, map2 (Printf.sprintf "[%s, %s][1]") sub sub);
          (1, map (Printf.sprintf "({ k: %s }).k") sub);
          (1, map (Printf.sprintf "(!%s)") sub);
        ]
  and stmt d ~in_loop ~in_fun =
    let e = expr (min d 2) in
    let simple =
      [
        (3, map2 (Printf.sprintf "var %s = %s;") name e);
        (1, map (Printf.sprintf "var %s;") name);
        (3, map2 (Printf.sprintf "%s = %s;") name e);
        (1, map2 (Printf.sprintf "%s += %s;") name e);
        (3, map (Printf.sprintf "print(%s);") e);
        (1, map (Printf.sprintf "throw %s;") e);
      ]
      @ (if in_loop then [ (1, return "break;"); (1, return "continue;") ] else [])
      @ if in_fun then [ (1, map (Printf.sprintf "return %s;") e) ] else []
    in
    if d <= 0 then frequency simple
    else
      let body ?(in_loop = in_loop) () = stmts (d - 1) ~in_loop ~in_fun in
      frequency
        (simple
        @ [
            (2, map (Printf.sprintf "{ %s }") (body ()));
            (2, map3 (Printf.sprintf "if (%s) { %s } else { %s }") e (body ()) (body ()));
            ( 1,
              map2
                (fun n b -> Printf.sprintf "var %s = 0; while (%s < 3) { %s++; %s }" n n n b)
                name (body ~in_loop:true ()) );
            ( 2,
              map2
                (fun n b -> Printf.sprintf "for (var %s = 0; %s < 3; %s++) { %s }" n n n b)
                name (body ~in_loop:true ()) );
            ( 1,
              map3
                (fun b c f -> Printf.sprintf "try { %s } catch (e) { print(e); %s } finally { %s }" b c f)
                (body ()) (body ()) (body ()) );
            (1, map3 (Printf.sprintf "try { %s } catch (%s) { %s }") (body ()) name (body ()));
            (1, map2 (Printf.sprintf "try { %s } finally { print(\"f\"); %s }") (body ()) (body ()));
            ( 2,
              map3
                (fun f b r -> Printf.sprintf "function %s(p, q) { %s return %s; }" f b r)
                fname (stmts (d - 1) ~in_loop:false ~in_fun:true) e );
          ])
  and stmts d ~in_loop ~in_fun =
    map (String.concat " ") (list_size (int_range 0 4) (stmt d ~in_loop ~in_fun)) in
  (* [y] and [zz] start undeclared *)
  let prelude = "var a = 1; var b = 2; var x = 3; function f(p, q) { return p; } function g(p) { return 1; } " in
  pair (int_range 1 400)
    (map (( ^ ) prelude) (oneof (List.map (fun d -> stmts d ~in_loop:false ~in_fun:false) [ 1; 2; 3 ])))

let prop_differential =
  QCheck.Test.make ~name:"compiled engine agrees with the tree walker" ~count:3000
    (QCheck.make ~print:(fun (max_steps, src) -> Printf.sprintf "max_steps %d: %s" max_steps src)
       gen_program)
    (fun (max_steps, src) -> agree ~max_steps src)

(* the scoping quirks the compiled engine keeps from the walker *)
let quirk label ~expect src =
  let ((r, _, _, _) as c) = run_compiled ~max_steps:10_000 src in
  Alcotest.(check string) label expect r;
  Alcotest.(check string) (label ^ ": same as the walker") (show (run_reference ~max_steps:10_000 src)) (show c)

let test_scoping_quirks () =
  quirk "assigning before the var creates a global" ~expect:"string number"
    "function f() { y = 5; var y = 7; return y; } f(); typeof y";
  quirk "the local shadows only once it binds" ~expect:"number 3"
    "var x = 1; function g() { var r = x; var x = 2; return r + x; } g()";
  quirk "a block read falls through until its var runs" ~expect:"string outerinner"
    {|var x = "outer"; var r; { var s = x; var x = "inner"; r = s + x; } r|};
  quirk "var is block-scoped" ~expect:"number 1" "var x = 1; { var x = 2; } x";
  quirk "a block var is gone after the block" ~expect:"error: ReferenceError: s is not defined"
    "{ var s = 1; } s";
  quirk "loop iterations get fresh frames" ~expect:"number 3"
    "var fs = []; for (var i = 0; i < 3; i++) { var j = i; fs.push(function () { return j; }); } fs[0]() + fs[1]() + fs[2]()";
  quirk "an implicit global from a closure" ~expect:"number 42"
    "function set() { (function () { w = 42; })(); } set(); w";
  quirk "typeof an undeclared name" ~expect:"string undefined" "typeof nowhere";
  quirk "var without init rebinds a parameter" ~expect:"undefined undefined"
    "function f(p) { var p; return p; } f(1)";
  quirk "the catch binding is scoped to the catch" ~expect:"string outer"
    {|var e = "outer"; try { throw 1; } catch (e) { e = 2; } e|};
  (* a hoisted declaration charges nothing; typeof of a name charges one tick *)
  let _, steps, cycles, _ = run_compiled ~max_steps:100 "function f() { return 1; }" in
  Alcotest.(check (pair int int)) "hoisting is free" (0, 0) (steps, cycles);
  let _, steps, _, _ = run_compiled ~max_steps:100 "typeof zz" in
  Alcotest.(check int) "typeof ident is one tick" 1 steps;
  (* the value is evaluated before the target's receiver and index *)
  quirk "assignment order" ~expect:"string 1,5"
    "var a = [0, 0]; var i = 0; a[i] = (i = 1) + 4; a[0] = i; a.join()";
  quirk "a step budget error is catchable" ~expect:"error: script step budget exceeded"
    "var r = 0; try { while (true) { } } catch (e) { r = e; } r"

(* A break/continue with no loop of its own function around it is a
   compile error on both evaluators: nothing runs, nothing is charged,
   and no exception escapes to the host. *)
let test_stray_jumps () =
  let stray label ~expect src =
    let ((r, steps, cycles, console) as c) = run_compiled ~max_steps:10_000 src in
    Alcotest.(check string) label ("error: SyntaxError: " ^ expect ^ " outside a loop") r;
    Alcotest.(check (pair int int)) (label ^ ": nothing ran") (0, 0) (steps, cycles);
    Alcotest.(check string) (label ^ ": nothing printed") "" console;
    Alcotest.(check string) (label ^ ": same as the walker") (show (run_reference ~max_steps:10_000 src)) (show c)
  in
  stray "top-level break" ~expect:"break" {|print("before"); break;|};
  stray "top-level continue" ~expect:"continue" "{ continue; }";
  stray "UDF body" ~expect:"continue" "function f(d) { continue; }";
  stray "break in a function called from a loop" ~expect:"break"
    "function f() { break; } while (true) { f(); }";
  stray "break in a closure inside a loop" ~expect:"break"
    "for (var i = 0; i < 3; i++) { (function () { if (i) { break; } })(); }";
  stray "the first stray in evaluation order" ~expect:"continue"
    "a[function () { break; }] = function () { continue; };";
  quirk "break in a loop inside a function" ~expect:"number 2"
    "function f() { var i = 0; while (true) { try { if (i === 2) { break; } } finally { i++; } } return i - 1; } f()";
  (* through the engine and the isolate: an error, never an exception *)
  let e = Vjs.Engine.create () in
  (match Vjs.Engine.eval e "break;" with
  | Error msg -> Alcotest.(check string) "Engine.eval" "SyntaxError: break outside a loop" msg
  | Ok _ -> Alcotest.fail "expected a syntax error");
  let w = Wasp.Runtime.create () in
  let iso = Vjs.Isolate.create w ~key:"stray" ~source:"function f(d) { continue; }" ~entry:"f" in
  match Vjs.Isolate.invoke iso ~input:(Bytes.of_string "x") with
  | Error _, _ -> ()
  | Ok r, _ -> Alcotest.failf "expected an error, got %s" r

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                      *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated while [f] runs: deterministic for a fixed
   binary, so the bound is an exact gate, not timing. *)
let words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A warm invocation restores the snapshotted isolate (rebuilding the
   engine from the compiled source), decodes 512 input bytes and runs
   the base64 loop. Most of the words are the guest's quadratic
   [out += ...] string concatenation. *)
let test_warm_invoke_allocation () =
  let w = Wasp.Runtime.create () in
  let iso = Vjs.Isolate.create w ~key:"alloc" ~source:Vjs.Workload.base64_js_source ~entry:"encode" in
  let input = Vjs.Workload.make_input ~size:512 in
  let expected = Vjs.Workload.reference_encode input in
  let invoke () =
    match Vjs.Isolate.invoke iso ~input with
    | Ok out, _ -> Alcotest.(check string) "output" expected out
    | Error e, _ -> Alcotest.fail e
  in
  invoke ();
  invoke ();
  let words = words_during invoke in
  Alcotest.(check bool) (Printf.sprintf "%.0f words per warm invoke (<= 50000)" words) true (words <= 50_000.)

(* ------------------------------------------------------------------ *)
(* The base64 workload (§6.5)                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_baseline_correct () =
  let input = Vjs.Workload.make_input ~size:300 in
  let clock = Cycles.Clock.create () in
  let out = Vjs.Workload.run_baseline ~clock ~input in
  Alcotest.(check string) "matches reference" (Vjs.Workload.reference_encode input) out.output;
  Alcotest.(check bool) "charged" true (out.latency_cycles > 0L)

let test_workload_baseline_sizes () =
  let clock = Cycles.Clock.create () in
  List.iter
    (fun size ->
      let input = Vjs.Workload.make_input ~size in
      let out = Vjs.Workload.run_baseline ~clock ~input in
      Alcotest.(check string)
        (Printf.sprintf "size %d" size)
        (Vjs.Workload.reference_encode input)
        out.output)
    [ 0; 1; 2; 3; 4; 100 ]

let test_workload_virtine_correct () =
  let w = Wasp.Runtime.create () in
  let input = Vjs.Workload.make_input ~size:300 in
  let out = Vjs.Workload.run_virtine w ~input ~snapshot:false ~teardown:true ~key:"k1" in
  Alcotest.(check string) "virtine output" (Vjs.Workload.reference_encode input) out.output

let test_workload_snapshot_correct_and_faster () =
  let w = Wasp.Runtime.create () in
  let input = Vjs.Workload.make_input ~size:300 in
  let r1 = Vjs.Workload.run_virtine w ~input ~snapshot:true ~teardown:true ~key:"k2" in
  let r2 = Vjs.Workload.run_virtine w ~input ~snapshot:true ~teardown:true ~key:"k2" in
  Alcotest.(check string) "still correct" (Vjs.Workload.reference_encode input) r2.output;
  Alcotest.(check bool)
    (Printf.sprintf "snapshot faster: %Ld < %Ld" r2.latency_cycles r1.latency_cycles)
    true
    (r2.latency_cycles < r1.latency_cycles)

let test_workload_nt_faster () =
  let w = Wasp.Runtime.create () in
  let input = Vjs.Workload.make_input ~size:300 in
  (* warm both snapshot keys *)
  ignore (Vjs.Workload.run_virtine w ~input ~snapshot:true ~teardown:true ~key:"kt");
  ignore (Vjs.Workload.run_virtine w ~input ~snapshot:true ~teardown:false ~key:"knt");
  let with_td = Vjs.Workload.run_virtine w ~input ~snapshot:true ~teardown:true ~key:"kt" in
  let no_td = Vjs.Workload.run_virtine w ~input ~snapshot:true ~teardown:false ~key:"knt" in
  Alcotest.(check bool)
    (Printf.sprintf "NT faster: %Ld < %Ld" no_td.latency_cycles with_td.latency_cycles)
    true
    (no_td.latency_cycles < with_td.latency_cycles)

let test_workload_baseline_latency_ballpark () =
  (* the paper's baseline is 419 us; ours should be the same order *)
  let clock = Cycles.Clock.create () in
  let input = Vjs.Workload.make_input ~size:1024 in
  let out = Vjs.Workload.run_baseline ~clock ~input in
  let us = Cycles.Clock.to_us clock out.latency_cycles in
  Alcotest.(check bool) (Printf.sprintf "baseline %.0f us in [150, 1200]" us) true
    (us > 150.0 && us < 1200.0)

let () =
  Alcotest.run "vjs"
    [
      ( "language",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "variables" `Quick test_variables;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "objects" `Quick test_objects;
          Alcotest.test_case "array higher-order" `Quick test_array_higher_order;
          Alcotest.test_case "JSON" `Quick test_json;
          Alcotest.test_case "try/catch/finally" `Quick test_try_catch;
          Alcotest.test_case "uncaught throw" `Quick test_uncaught_throw_is_error;
          Alcotest.test_case "math builtins" `Quick test_math_builtins;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
        ] );
      ( "engine",
        [
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "native bindings" `Quick test_native_bindings;
          Alcotest.test_case "print/console" `Quick test_print_console;
          Alcotest.test_case "cost charging" `Quick test_engine_charges;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x7a5 |]) prop_differential;
          Alcotest.test_case "scoping quirks" `Quick test_scoping_quirks;
          Alcotest.test_case "stray break/continue" `Quick test_stray_jumps;
        ] );
      ("allocation", [ Alcotest.test_case "warm 512 B invoke" `Quick test_warm_invoke_allocation ]);
      ( "workload",
        [
          Alcotest.test_case "baseline correct" `Quick test_workload_baseline_correct;
          Alcotest.test_case "baseline sizes" `Quick test_workload_baseline_sizes;
          Alcotest.test_case "virtine correct" `Quick test_workload_virtine_correct;
          Alcotest.test_case "snapshot faster" `Quick test_workload_snapshot_correct_and_faster;
          Alcotest.test_case "no-teardown faster" `Quick test_workload_nt_faster;
          Alcotest.test_case "baseline latency ballpark" `Quick
            test_workload_baseline_latency_ballpark;
        ] );
    ]
