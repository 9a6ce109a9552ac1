//! Interceptor chains — the invocation path.
//!
//! Paper §4: "An application-level invocation passes through a chain of
//! interceptors, each interceptor completing some task before passing the
//! invocation to the next interceptor in the chain. Existing services can
//! be modified or new services added to a container by inserting additional
//! interceptors in the chain."
//!
//! [`Invocation`] is the reflective invocation object (the JBoss
//! `Invocation`); [`Interceptor::invoke`] receives it together with the
//! [`Chain`] to proceed down; the chain terminates at an
//! [`InvocationTarget`] (the component on the server, the transport on the
//! client).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{MethodName, OrgId, ServiceUri};
use nonrep_types::value::Value;

use crate::ContainerError;

/// A reflective snapshot of a service invocation in flight.
///
/// Carries the caller identity, target service/method, arguments and a
/// propagated context map (the J2EE invocation payload/context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// The invoking organisation.
    pub caller: OrgId,
    /// Target service.
    pub service: ServiceUri,
    /// Target method.
    pub method: MethodName,
    /// Arguments.
    pub args: Value,
    /// Propagated context (sorted for canonical encoding).
    pub context: BTreeMap<String, Value>,
}

impl Invocation {
    /// Creates an invocation with empty context.
    pub fn new(
        caller: impl Into<OrgId>,
        service: impl Into<ServiceUri>,
        method: impl Into<MethodName>,
        args: Value,
    ) -> Self {
        Self {
            caller: caller.into(),
            service: service.into(),
            method: method.into(),
            args,
            context: BTreeMap::new(),
        }
    }
}

impl Encode for Invocation {
    fn encode(&self, w: &mut Writer) {
        self.caller.encode(w);
        self.service.encode(w);
        self.method.encode(w);
        self.args.encode(w);
        w.put_u32(self.context.len() as u32);
        for (k, v) in &self.context {
            w.put_str(k);
            v.encode(w);
        }
    }
}

impl Decode for Invocation {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let caller = OrgId::decode(r)?;
        let service = ServiceUri::decode(r)?;
        let method = MethodName::decode(r)?;
        let args = Value::decode(r)?;
        let n = r.get_u32()? as usize;
        let mut context = BTreeMap::new();
        for _ in 0..n {
            let k = r.get_string()?;
            let v = Value::decode(r)?;
            context.insert(k, v);
        }
        Ok(Self {
            caller,
            service,
            method,
            args,
            context,
        })
    }
}

/// The terminal of an interceptor chain.
pub trait InvocationTarget: Send + Sync {
    /// Executes the invocation (component call or remote dispatch).
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`] from the execution.
    fn execute(&self, inv: Invocation) -> Result<Value, ContainerError>;
}

impl<F> InvocationTarget for F
where
    F: Fn(Invocation) -> Result<Value, ContainerError> + Send + Sync,
{
    fn execute(&self, inv: Invocation) -> Result<Value, ContainerError> {
        self(inv)
    }
}

/// An interceptor on the invocation path.
pub trait Interceptor: Send + Sync {
    /// Processes `inv`, normally calling `chain.proceed(inv)` to continue.
    ///
    /// An interceptor may short-circuit (return without proceeding), modify
    /// the invocation, or act on the result on the way back — the same
    /// out/return duality the paper relies on for NR interceptor placement.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`]; errors propagate back up the chain.
    fn invoke(&self, inv: Invocation, chain: &Chain<'_>) -> Result<Value, ContainerError>;

    /// Human-readable name (diagnostics).
    fn name(&self) -> &str {
        "interceptor"
    }
}

/// The remaining interceptors plus the terminal target.
pub struct Chain<'a> {
    rest: &'a [Arc<dyn Interceptor>],
    target: &'a dyn InvocationTarget,
}

impl fmt::Debug for Chain<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chain")
            .field("remaining", &self.rest.len())
            .finish()
    }
}

impl<'a> Chain<'a> {
    /// Builds a chain over `interceptors` ending at `target`.
    pub fn new(interceptors: &'a [Arc<dyn Interceptor>], target: &'a dyn InvocationTarget) -> Self {
        Self {
            rest: interceptors,
            target,
        }
    }

    /// Passes the invocation to the next interceptor (or the target).
    ///
    /// # Errors
    ///
    /// Whatever the downstream chain returns.
    pub fn proceed(&self, inv: Invocation) -> Result<Value, ContainerError> {
        match self.rest.split_first() {
            Some((head, tail)) => {
                let next = Chain {
                    rest: tail,
                    target: self.target,
                };
                head.invoke(inv, &next)
            }
            None => self.target.execute(inv),
        }
    }

    /// Interceptors remaining below this point.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

/// Records every invocation that passes through (a test probe).
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct LoggingInterceptor {
    seen: Mutex<Vec<String>>,
}

#[cfg(test)]
impl LoggingInterceptor {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn entries(&self) -> Vec<String> {
        self.seen.lock().clone()
    }
}

#[cfg(test)]
impl Interceptor for LoggingInterceptor {
    fn invoke(&self, inv: Invocation, chain: &Chain<'_>) -> Result<Value, ContainerError> {
        self.seen
            .lock()
            .push(format!("{} -> {}.{}", inv.caller, inv.service, inv.method));
        let result = chain.proceed(inv);
        if result.is_err() {
            self.seen.lock().push("  !! failed".into());
        }
        result
    }

    fn name(&self) -> &str {
        "logging"
    }
}

/// Counts invocations and failures.
#[derive(Debug, Default)]
pub struct MetricsInterceptor {
    calls: Mutex<(u64, u64)>,
}

impl MetricsInterceptor {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(total invocations, failures)`.
    pub fn counts(&self) -> (u64, u64) {
        *self.calls.lock()
    }
}

impl Interceptor for MetricsInterceptor {
    fn invoke(&self, inv: Invocation, chain: &Chain<'_>) -> Result<Value, ContainerError> {
        let result = chain.proceed(inv);
        let mut c = self.calls.lock();
        c.0 += 1;
        if result.is_err() {
            c.1 += 1;
        }
        result
    }

    fn name(&self) -> &str {
        "metrics"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_target() -> impl InvocationTarget {
        |inv: Invocation| Ok(Value::from(format!("ran {}", inv.method)))
    }

    #[test]
    fn empty_chain_hits_target() {
        let target = ok_target();
        let chain = Chain::new(&[], &target);
        let inv = Invocation::new("a", "svc", "m", Value::Null);
        assert_eq!(chain.proceed(inv).unwrap(), Value::from("ran m"));
    }

    #[test]
    fn interceptors_run_in_order() {
        struct Tag(&'static str, Arc<Mutex<Vec<&'static str>>>);
        impl Interceptor for Tag {
            fn invoke(&self, inv: Invocation, chain: &Chain<'_>) -> Result<Value, ContainerError> {
                self.1.lock().push(self.0);
                chain.proceed(inv)
            }
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let chain_vec: Vec<Arc<dyn Interceptor>> = vec![
            Arc::new(Tag("first", order.clone())),
            Arc::new(Tag("second", order.clone())),
        ];
        let target = ok_target();
        let chain = Chain::new(&chain_vec, &target);
        chain
            .proceed(Invocation::new("a", "s", "m", Value::Null))
            .unwrap();
        assert_eq!(order.lock().as_slice(), &["first", "second"]);
    }

    #[test]
    fn interceptor_can_short_circuit() {
        struct Block;
        impl Interceptor for Block {
            fn invoke(
                &self,
                _inv: Invocation,
                _chain: &Chain<'_>,
            ) -> Result<Value, ContainerError> {
                Err(ContainerError::Application("blocked".into()))
            }
        }
        let chain_vec: Vec<Arc<dyn Interceptor>> = vec![Arc::new(Block)];
        let target = ok_target();
        let chain = Chain::new(&chain_vec, &target);
        assert!(matches!(
            chain.proceed(Invocation::new("a", "s", "m", Value::Null)),
            Err(ContainerError::Application(_))
        ));
    }

    #[test]
    fn interceptor_can_rewrite_invocation_and_result() {
        struct Rewrite;
        impl Interceptor for Rewrite {
            fn invoke(
                &self,
                mut inv: Invocation,
                chain: &Chain<'_>,
            ) -> Result<Value, ContainerError> {
                inv.method = MethodName::new("rewritten");
                let out = chain.proceed(inv)?;
                Ok(Value::list([out, Value::from("suffix")]))
            }
        }
        let chain_vec: Vec<Arc<dyn Interceptor>> = vec![Arc::new(Rewrite)];
        let target = ok_target();
        let chain = Chain::new(&chain_vec, &target);
        let out = chain
            .proceed(Invocation::new("a", "s", "m", Value::Null))
            .unwrap();
        assert!(matches!(&out, Value::List(items) if items[0] == Value::from("ran rewritten")));
    }

    #[test]
    fn logging_and_metrics_observe() {
        let log = Arc::new(LoggingInterceptor::new());
        let metrics = Arc::new(MetricsInterceptor::new());
        let chain_vec: Vec<Arc<dyn Interceptor>> = vec![log.clone(), metrics.clone()];
        let fail_target = |_inv: Invocation| -> Result<Value, ContainerError> {
            Err(ContainerError::Application("x".into()))
        };
        let chain = Chain::new(&chain_vec, &fail_target);
        let _ = chain.proceed(Invocation::new("org-a", "svc", "m", Value::Null));
        assert_eq!(metrics.counts(), (1, 1));
        assert_eq!(log.entries().len(), 2);
        assert!(log.entries()[0].contains("org-a -> svc.m"));
    }

    #[test]
    fn invocation_codec_roundtrip() {
        let mut inv = Invocation::new("caller", "svc", "m", Value::from(42i64));
        inv.context.insert("trace".into(), Value::from("abc"));
        let back = Invocation::decode_from_slice(&inv.encode_to_vec()).unwrap();
        assert_eq!(back, inv);
    }
}
